/// \file multi_client.h
/// \brief Describing a heterogeneous client population on one broadcast.
///
/// Section 3 of the paper: "tuning the performance of the broadcast is a
/// zero-sum game; improving the broadcast for any one access probability
/// distribution will hurt the performance of clients with different access
/// distributions." The single-client simulator models this indirectly with
/// Noise; this module models it directly: any number of clients, each with
/// its own access distribution, cache and policy, all listening to the
/// same channel (a broadcast never contends, so clients interact only
/// through how well the program fits each of them). This header holds the
/// population's parameters, results and report; the sharded engine in
/// pop/engine.h runs it.
///
/// Client heterogeneity is expressed with `interest_shift`: client c's
/// hottest logical page corresponds to physical page `interest_shift`, so
/// populations with spread-out shifts want different parts of the database
/// hot. A server program (physical page 0 = hottest by the *server's*
/// ranking) can then favor some clients over others.

#ifndef BCAST_CORE_MULTI_CLIENT_H_
#define BCAST_CORE_MULTI_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adapt/adapt_params.h"
#include "adapt/adapt_stats.h"
#include "core/metrics.h"
#include "core/params.h"
#include "core/simulator.h"
#include "des/simulation.h"
#include "fault/fault_params.h"
#include "fault/recovery.h"
#include "obs/run_report.h"
#include "obs/stopwatch.h"
#include "pull/pull_params.h"
#include "pull/pull_stats.h"

namespace bcast {

/// \brief One client of the population.
struct ClientSpec {
  /// Pages this client ever requests (its own logical numbering).
  uint64_t access_range = 1000;

  /// Zipf skew and region size of its access distribution.
  double theta = 0.95;
  uint64_t region_size = 50;

  /// Where in the physical database this client's interest centers:
  /// its hottest logical page maps to physical `interest_shift` (before
  /// offset/noise). 0 = perfectly aligned with the server's ranking.
  uint64_t interest_shift = 0;

  /// Per-client Offset (hot pages pushed to the slow-disk tail) and Noise.
  uint64_t offset = 0;
  double noise_percent = 0.0;
  NoiseScope noise_scope = NoiseScope::kAccessRange;

  /// Cache and policy.
  uint64_t cache_size = 500;
  PolicyKind policy = PolicyKind::kLix;
  PolicyOptions policy_options;

  /// Think-time model.
  double think_time = 2.0;
  ThinkTimeKind think_kind = ThinkTimeKind::kFixed;

  /// Receiver-class scaling of the population-shared fault knobs: this
  /// client's channel/uplink loss probabilities are `fault.loss *
  /// loss_scale` (clamped to [0, 1]) and its doze duty cycle stretches
  /// by `doze_scale` (doze_for *= doze_scale; 0 disables dozing). The
  /// defaults leave the shared knobs untouched, so homogeneous
  /// populations are bit-identical to the pre-class behavior. "Near"
  /// receivers set scales < 1, "far" ones > 1 (paper §5's receiver
  /// heterogeneity).
  double loss_scale = 1.0;
  double doze_scale = 1.0;

  /// Receiver-class index this spec was expanded from (reporting only;
  /// 0 = the default class).
  uint32_t class_id = 0;
};

/// \brief The population-shared fault knobs specialized to one client's
/// receiver class (identity when both scales are 1).
fault::FaultParams ScaledFaultParams(const fault::FaultParams& base,
                                     const ClientSpec& spec);

struct MultiClientParams;

/// \brief The access distribution the server designs for: the mean of
/// every client's nominal (unshifted) distribution, hottest-first and
/// non-increasing. Interest shifts, offsets and noise are deliberately
/// ignored — the server schedules for its advertised ordering, and
/// per-client misalignment is exactly what the population experiments
/// measure. This is what the non-default optimizers consume.
std::vector<double> PopulationNominalProbs(const MultiClientParams& params);

/// \brief Population-level experiment parameters.
struct MultiClientParams {
  /// Server side: disks, frequencies, program kind — as in SimParams.
  std::vector<uint64_t> disk_sizes = {500, 2000, 2500};
  uint64_t delta = 2;
  std::vector<uint64_t> rel_freqs;  ///< overrides delta when non-empty
  ProgramKind program_kind = ProgramKind::kMultiDisk;

  /// Schedule optimizer building the multi-disk program (registry name;
  /// see broadcast/schedule_optimizer.h). Non-default optimizers derive
  /// their frequencies from the population's mean nominal access
  /// distribution, so they require the multi-disk program and empty
  /// `rel_freqs`; `rbo` additionally excludes pull (no chunked minor
  /// cycles to interleave into).
  std::string optimizer = "delta";

  /// The clients. Must be non-empty.
  std::vector<ClientSpec> clients;

  /// Requests measured per client after its warm-up.
  uint64_t measured_requests = 50000;

  /// Warm-up request cap per client.
  uint64_t max_warmup_requests = 2000000;

  /// Master seed; client c draws from independent sub-streams.
  uint64_t seed = 42;

  /// Inert: nothing reads it (see SimParams::des_queue).
  int des_queue = 0;

  /// Unreliable-channel knobs, shared by the population; each client
  /// gets its own receiver with (client id, purpose)-keyed fault
  /// streams. Inactive by default.
  fault::FaultParams fault;

  /// Hybrid push–pull knobs, shared by the population: one pull server
  /// (backchannel + request queue) serves every client, and each client
  /// gets its own requester with a (client id, kUplink)-keyed loss
  /// stream. Inactive by default; active pull requires the multi-disk
  /// program.
  pull::PullParams pull;

  /// Adaptive control-plane knobs, shared by the population: one epoch
  /// controller steers the program (and the shared pull server) from the
  /// aggregate loss and queue measurements of every client. Inactive by
  /// default; same activation requirements as SimParams.
  adapt::AdaptParams adapt;

  /// Total pages broadcast.
  uint64_t ServerDbSize() const;

  /// Structural validation.
  Status Validate() const;
};

/// \brief Per-population results.
struct MultiClientResult {
  /// Per-client metrics, in `clients` order.
  std::vector<ClientMetrics> per_client;

  /// Mean response time of each client (convenience).
  std::vector<double> mean_response_times;

  /// Statistics over the per-client means: the population's fairness
  /// picture (max/min spread, etc.).
  RunningStat response_across_clients;

  /// All clients' metrics merged (histograms, hits, per-disk counts) —
  /// the population-wide distributional view.
  ClientMetrics aggregate{1};

  /// Simulated end time.
  double end_time = 0.0;

  /// Wall-clock breakdown (warmup/measured are not separable per client
  /// in a concurrent population; the event loop lands in
  /// measured_seconds).
  obs::PhaseTimings timings;

  /// Events the DES kernel dispatched.
  uint64_t events_dispatched = 0;

  /// Expected delay the optimizer predicted for its program under the
  /// population's mean nominal distribution (0 for `delta`, which skips
  /// the prediction to keep its historical build path byte-for-byte).
  double predicted_delay = 0.0;

  /// Channel-fault accounting merged over all clients; populated (and
  /// `faults_active` set) only when `params.fault.Active()`.
  fault::FaultStats faults;
  bool faults_active = false;

  /// Hybrid push–pull accounting, accumulated on the shared server by
  /// the whole population; populated (and `pull_active` set) only when
  /// `params.pull.Active()`.
  pull::PullStats pull_stats;
  bool pull_active = false;

  /// Adaptive-controller accounting; populated (and `adapt_active` set)
  /// only when `params.adapt.Active()`.
  adapt::AdaptStats adapt_stats;
  bool adapt_active = false;

  /// Population-wide measured requests (and hits) against the pinned
  /// cold-page set; populated when pull or adaptation is active.
  uint64_t cold_requests = 0;
  uint64_t cold_hits = 0;

  /// Per-event-kind DES dispatch profile; populated (and
  /// `profile_active` set) only when `SimObservers::profile_des` was on.
  des::DesProfile profile;
  bool profile_active = false;
};

/// \brief The population a single-client configuration describes:
/// \p clients copies of \p base's client (access distribution, cache,
/// policy and its options, think time, offset and noise) whose interest
/// shifts are spread evenly over the database (client c's shift is
/// DBSize * c / clients), sharing \p base's server, run-length, fault,
/// pull and adaptation knobs. Run it with pop::RunPopulationSimulation.
MultiClientParams PopulationFromSimParams(const SimParams& base,
                                          uint64_t clients);

/// \brief Renders a population run as a run report (mode "population"):
/// aggregate counts and distributions plus per-population fairness
/// extras, and the channel-fault extras when faults were active.
/// \p config is the one-line configuration identity (callers driving the
/// population from a SimParams template pass `base.ToString()`).
obs::RunReport MakePopulationRunReport(const MultiClientParams& params,
                                       const MultiClientResult& result,
                                       const std::string& config,
                                       const std::string& tool);

}  // namespace bcast

#endif  // BCAST_CORE_MULTI_CLIENT_H_
