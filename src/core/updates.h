/// \file updates.h
/// \brief Volatile data: updates, staleness, and consistency actions
/// (extension).
///
/// The paper's study is read-only; its Section 7 asks "How would our
/// results have to change if we allowed the broadcast data to change from
/// cycle to cycle?" and points at Datacycle's use of periodicity for
/// update semantics. This module answers with the standard follow-up
/// design: server pages receive updates (per-page Poisson processes, with
/// a Zipf-skewed update distribution), cached client copies go stale, and
/// the client can run one of three consistency actions:
///
///  - `kNone` — serve whatever is cached; we count how often that is
///    stale (the do-nothing baseline).
///  - `kInvalidate` — the server announces each cycle's updates at the
///    next period boundary (e.g. in the spare slots the generator leaves);
///    a client hit on a known-stale page becomes a demand re-fetch.
///    Updates from the *current* cycle are not yet announced and can
///    still be served stale.
///  - `kAutoRefresh` — the client's receiver also refreshes any cached
///    page whenever it passes on the broadcast (free in latency, paid in
///    tuning); a cached copy is stale only if the page was updated after
///    its most recent broadcast.
///
/// Staleness bookkeeping is exact but lazy: per-page Poisson update
/// clocks are advanced only when a page is examined.
///
/// The update model rides on the single-client `Client`: an updates run
/// is a single run (`RunSimulation`) whose client carries an
/// `UpdateModel`, so both modes share one setup, one event loop and one
/// request loop.

#ifndef BCAST_CORE_UPDATES_H_
#define BCAST_CORE_UPDATES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "broadcast/program.h"
#include "cache/cache_policy.h"
#include "client/mapping.h"
#include "common/rng.h"
#include "core/params.h"
#include "fault/recovery.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/run_report.h"

namespace bcast {

/// \brief What the client does about staleness.
enum class ConsistencyAction {
  kNone,        ///< Serve cached copies blindly.
  kInvalidate,  ///< Per-cycle invalidation lists; stale hits re-fetch.
  kAutoRefresh, ///< Cached pages refresh as they pass on the air.
};

/// \brief Update-workload parameters.
struct UpdateParams {
  /// Expected updates per broadcast unit across the whole database.
  double update_rate = 0.05;

  /// Zipf skew of which (physical) page an update hits; 0 = uniform.
  /// Updates follow the server's hot ranking: page 0 hottest.
  double update_theta = 0.0;

  /// The consistency action.
  ConsistencyAction action = ConsistencyAction::kInvalidate;

  /// \name Disconnection model ("Sleepers and Workaholics" [Barb94],
  /// discussed in the paper's related work).
  ///
  /// When both are positive the client alternates: awake for `awake_for`
  /// broadcast units (issuing requests), asleep for `sleep_for` (radio
  /// off — no requests, no invalidation lists, no auto-refresh).
  /// @{
  double awake_for = 0.0;
  double sleep_for = 0.0;
  /// @}

  /// How many past cycles of invalidation lists the server re-broadcasts
  /// (kInvalidate only). A client that slept longer than this window
  /// cannot verify its cache on reconnect and must distrust every older
  /// entry (refetching on demand). 0 = unbounded history (never
  /// distrust).
  uint64_t invalidation_window_cycles = 0;
};

/// \brief Per-page lazily-advanced Poisson update clocks.
class UpdateTracker {
 public:
  /// \param num_pages   Physical pages subject to updates.
  /// \param total_rate  Updates per broadcast unit over all pages (> 0 for
  ///                    any updates; 0 disables them).
  /// \param theta       Zipf skew of the per-page rates (page 0 hottest).
  /// \param rng         Update-process randomness (owned).
  static Result<UpdateTracker> Make(PageId num_pages, double total_rate,
                                    double theta, Rng rng);

  /// Time of the last update of \p page at or before \p now
  /// (-infinity if never updated). Advances the page's clock lazily;
  /// `now` must not decrease across calls for the same page.
  double LastUpdateBefore(PageId page, double now);

  /// Total updates generated so far (for tests).
  uint64_t updates_generated() const { return updates_; }

 private:
  UpdateTracker(const std::vector<double>& rates, Rng rng);

  struct PageClock {
    double last = -1.0;  // last update time; < 0 means none yet
    double next = 0.0;   // next scheduled update
  };

  // Per-page mean time between updates, 1 / rate; 0 for a page whose
  // rate is 0, as its clock never comes due.
  std::vector<double> means_;
  std::vector<PageClock> clocks_;
  Rng rng_;
  uint64_t updates_ = 0;
};

/// \brief Staleness on one client's cache: the update clocks, the
/// consistency action and the disconnection model of `UpdateParams`. It
/// runs no process of its own. The single-client `Client` consults it
/// through `ClientRunConfig::updates`: before each request (naps), on
/// each cache hit (fresh, stale or known stale) and after each fetch.
class UpdateModel {
 public:
  UpdateModel(const UpdateParams& params, UpdateTracker tracker);

  /// Binds the model to the client's cache, its logical-to-physical
  /// mapping and the (static) program on the air; once, before the run.
  /// All three must outlive the run.
  void Attach(const CachePolicy* cache, const Mapping* mapping,
              const BroadcastProgram* program);

  /// The nap due at \p now: its length, or 0 when the client stays
  /// awake. The nap ends at `now + length`; its bookkeeping (banked
  /// auto-refreshes, the next nap, a distrust purge past the
  /// invalidation window) is done here.
  double NapDue(double now);

  /// Judges a cache hit on \p logical at \p now. True when the copy is
  /// known stale and must be re-fetched (kInvalidate); otherwise the hit
  /// is served, and counted as stale when \p measured and the copy is.
  bool MustRefetch(PageId logical, double now, bool measured);

  /// A broadcast fetch of \p logical completed at \p now, so a cached
  /// copy is current. \p refetch marks the re-fetch of a known-stale
  /// hit, counted when \p measured.
  void OnFetched(PageId logical, double now, bool refetch, bool measured);

  /// Measured hits served stale, and measured known-stale re-fetches.
  uint64_t stale_hits() const { return stale_hits_; }
  uint64_t refetches() const { return refetches_; }

  /// Naps taken, and naps past the invalidation window (whole run).
  uint64_t naps() const { return naps_; }
  uint64_t distrust_purges() const { return distrust_purges_; }

  /// Updates the server generated so far.
  uint64_t updates_generated() const { return tracker_.updates_generated(); }

 private:
  double Period() const { return static_cast<double>(program_->period()); }

  /// Last completed broadcast of \p physical within (window_start, to],
  /// or -infinity if none.
  double LastBroadcastEnd(PageId physical, double window_start,
                          double to) const;

  UpdateParams params_;
  UpdateTracker tracker_;
  const CachePolicy* cache_ = nullptr;
  const Mapping* mapping_ = nullptr;
  const BroadcastProgram* program_ = nullptr;

  // Per-logical-page freshness time: when the cached copy's content was
  // current (fetch completion, or the last on-air refresh banked before a
  // nap under kAutoRefresh). Spans the cache's page space.
  std::vector<double> content_time_;

  // Disconnection state.
  double next_sleep_;
  double last_reconnect_ = 0.0;
  double distrust_before_;

  uint64_t stale_hits_ = 0;
  uint64_t refetches_ = 0;
  uint64_t naps_ = 0;
  uint64_t distrust_purges_ = 0;
};

/// \brief Metrics of one volatile-data run.
struct UpdateSimResult {
  /// Requests measured.
  uint64_t requests = 0;

  /// Hits served fresh from the cache.
  uint64_t fresh_hits = 0;

  /// Hits served with stale data (the client could not know).
  uint64_t stale_hits = 0;

  /// Hits on known-stale pages converted to broadcast re-fetches
  /// (kInvalidate only).
  uint64_t invalidation_refetches = 0;

  /// Ordinary misses (page not cached).
  uint64_t cold_misses = 0;

  /// Naps taken (disconnection model).
  uint64_t naps = 0;

  /// Naps that exceeded the invalidation window, forcing the client to
  /// distrust its whole cache on reconnect.
  uint64_t distrust_purges = 0;

  /// Mean response time over all requests (broadcast units).
  double mean_response_time = 0.0;

  /// Response-time distribution over all measured requests (slots).
  obs::HistogramSummary response;

  /// Wall-clock seconds of the client's warm-up and measured phases.
  double wall_seconds = 0.0;

  /// Events the DES kernel dispatched.
  uint64_t events_dispatched = 0;

  /// Channel-fault accounting; populated (and `faults_active` set) only
  /// when `base.fault.Active()`.
  fault::FaultStats faults;
  bool faults_active = false;

  /// Fraction of requests served stale.
  double StaleFraction() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(stale_hits) /
                     static_cast<double>(requests);
  }
};

/// \brief Runs the paper's client/server simulation with updates.
/// `base` supplies the broadcast, workload, cache and seeds; `updates`
/// the volatility model. Deterministic in `base.seed`. The runner
/// models channel faults but not pull, process faults or adaptation:
/// active `base.pull`, `base.fault.process` or `base.adapt` params are
/// rejected with InvalidArgument rather than silently ignored.
Result<UpdateSimResult> RunUpdateSimulation(const SimParams& base,
                                            const UpdateParams& updates);

/// \brief Same, additionally accumulating counters and the response
/// histogram into \p registry (under the "updates/" prefix) when it is
/// non-null. Observability never touches simulation randomness.
Result<UpdateSimResult> RunUpdateSimulation(const SimParams& base,
                                            const UpdateParams& updates,
                                            obs::MetricsRegistry* registry);

/// \brief Renders one volatile-data run as a run report (mode "updates"):
/// staleness accounting as extras, plus the channel-fault extras when
/// faults were active. The registry snapshot (if any) is the caller's to
/// attach.
obs::RunReport MakeUpdateRunReport(const SimParams& base,
                                   const UpdateParams& updates,
                                   const UpdateSimResult& result,
                                   const std::string& tool);

}  // namespace bcast

#endif  // BCAST_CORE_UPDATES_H_
