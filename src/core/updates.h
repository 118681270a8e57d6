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

#ifndef BCAST_CORE_UPDATES_H_
#define BCAST_CORE_UPDATES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "broadcast/program.h"
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
  UpdateTracker(std::vector<double> rates, Rng rng);

  struct PageClock {
    double last = -1.0;  // last update time; < 0 means none yet
    double next = 0.0;   // next scheduled update
  };

  std::vector<double> rates_;  // per-page update rate (may be 0)
  std::vector<PageClock> clocks_;
  Rng rng_;
  uint64_t updates_ = 0;
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

  /// Wall-clock seconds spent in the event loop.
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
