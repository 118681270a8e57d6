/// \file client.h
/// \brief The client process: the paper's Section 4.1 execution model.
///
/// The client loops forever: draw a logical page from its access
/// distribution; probe the cache; on a miss, tune in to the broadcast and
/// wait for the page's physical image, then offer it to the replacement
/// policy; finally "think" for ThinkTime broadcast units and repeat.
///
/// Measurement protocol (Section 5): warm-up runs until the cache is full
/// (bounded by a safety cap), then exactly `measured_requests` further
/// requests are recorded. The phase latches: once measurement starts, a
/// cache emptied by a cold crash restart does not reopen warm-up.

#ifndef BCAST_CLIENT_CLIENT_H_
#define BCAST_CLIENT_CLIENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "adapt/access_monitor.h"
#include "broadcast/channel.h"
#include "cache/cache_policy.h"
#include "client/access_generator.h"
#include "client/mapping.h"
#include "core/metrics.h"
#include "des/simulation.h"
#include "obs/histogram.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace bcast {

class UpdateModel;

namespace pull {
class PullClient;
}  // namespace pull

/// \brief Run-control knobs for one client.
struct ClientRunConfig {
  /// Requests recorded after warm-up.
  uint64_t measured_requests = 100000;

  /// Warm-up safety cap: stop warming even if the cache never fills
  /// (e.g. capacity > AccessRange).
  uint64_t max_warmup_requests = 2000000;

  /// Whether the client knows the (static) broadcast schedule — e.g. via
  /// a ScheduleLearner or out-of-band. Affects only the tuning-time
  /// metric: a knowing client dozes until its page's slot (1 slot of
  /// radio-on per miss); an ignorant one listens for the whole wait.
  bool knows_schedule = false;

  /// Optional sampled per-request trace sink (unowned; must outlive the
  /// run). nullptr — the default — keeps the request loop free of any
  /// observability work beyond one pointer test.
  obs::TraceSink* trace = nullptr;

  /// Optional unreliable-channel receiver (unowned; must outlive the
  /// run). nullptr — the default — waits on the ideal channel,
  /// bit-identical to the pre-fault client.
  fault::Receiver* receiver = nullptr;

  /// Optional hybrid pull requester (unowned; must outlive the run).
  /// nullptr — the default — never touches the backchannel,
  /// bit-identical to the pure-push client.
  pull::PullClient* pull = nullptr;

  /// Optional per-page demand monitor (unowned; must outlive the run).
  /// When set, every broadcast fetch — warm-up and measured — reports
  /// its physical page, feeding `--adapt_reopt`'s measured-frequency
  /// re-seating. nullptr — the default — adds no per-miss work.
  adapt::AccessMonitor* access = nullptr;

  /// Optional update model (unowned; must outlive the run), attached by
  /// updates mode. When set, it may nap the client before a request,
  /// turns a hit on a known-stale copy into a re-fetch (served like a
  /// miss, without a cache insert) and hears of every completed fetch.
  /// nullptr — the default — serves every hit from the cache.
  UpdateModel* updates = nullptr;

  /// Optional cold-page set, indexed by *physical* page and pinned to
  /// the initial program (unowned; must outlive the run). When set, the
  /// client counts measured-phase requests and hits against this fixed
  /// set — the class the adaptive gates compare across runs, immune to
  /// the controller re-seating pages mid-run. nullptr — the default —
  /// adds no per-request work.
  const std::vector<bool>* cold_pages = nullptr;

  /// Optional histogram of measured-phase response times of misses on
  /// `cold_pages` (unowned). Feeds the adapt cold-latency gate.
  obs::LogHistogram* cold_wait = nullptr;

  /// This client's index in its population (0 in single-client runs).
  /// Stamped into trace records and selects the timeline track.
  uint32_t client_id = 0;
};

/// \brief A single client workload driving a cache against the broadcast.
///
/// Construct it, then `sim->Spawn(client.Run())`. All referenced objects
/// must outlive the simulation run.
class Client {
 public:
  Client(des::Simulation* sim, BroadcastChannel* channel, CachePolicy* cache,
         AccessGenerator* gen, const Mapping* mapping, ClientRunConfig config);

  /// The client coroutine; spawn exactly once.
  des::Process Run();

  /// Metrics for the measured phase (valid once the run completes).
  const ClientMetrics& metrics() const { return metrics_; }

  /// Moves the metrics out (for result collection once the run is over);
  /// `metrics()` must not be read afterwards.
  ClientMetrics TakeMetrics() { return std::move(metrics_); }

  /// Requests spent warming up before measurement began.
  uint64_t warmup_requests() const { return warmup_requests_; }

  /// True once the measured phase has completed.
  bool finished() const { return finished_; }

  /// Measured-phase requests (and cache hits) for pages of the pinned
  /// cold set; both 0 unless `config.cold_pages` was provided.
  uint64_t cold_requests() const { return cold_requests_; }
  uint64_t cold_hits() const { return cold_hits_; }

  /// Wall-clock seconds the event loop spent inside this client's warm-up
  /// and measured phases (attributed from the client's own coroutine;
  /// with several concurrent clients the phases overlap and the numbers
  /// include interleaved work of the others).
  double warmup_wall_seconds() const { return warmup_wall_seconds_; }
  double measured_wall_seconds() const { return measured_wall_seconds_; }

 private:
  /// True when \p disk is the slowest (cold) disk of a multi-disk
  /// program — the class whose latency the pull sweep gate tracks.
  bool IsColdDisk(DiskIndex disk) const;

  /// Records one request into the trace sink if this request was sampled.
  void TraceRequest(double start, PageId logical, bool hit, bool warmup,
                    double wait, int32_t disk);

  des::Simulation* sim_;
  BroadcastChannel* channel_;
  CachePolicy* cache_;
  AccessGenerator* gen_;
  const Mapping* mapping_;
  ClientRunConfig config_;
  ClientMetrics metrics_;
  uint64_t warmup_requests_ = 0;
  uint64_t cold_requests_ = 0;
  uint64_t cold_hits_ = 0;
  bool finished_ = false;
  double warmup_wall_seconds_ = 0.0;
  double measured_wall_seconds_ = 0.0;

  // Most recent eviction (victim + policy score), captured via the cache's
  // eviction callback while tracing; consumed by the next trace record.
  int64_t pending_victim_ = -1;
  double pending_victim_score_ = 0.0;
};

}  // namespace bcast

#endif  // BCAST_CLIENT_CLIENT_H_
