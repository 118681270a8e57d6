/// \file simulator.h
/// \brief End-to-end wiring: params → program + mapping + cache + client →
/// one simulated run → results.

#ifndef BCAST_CORE_SIMULATOR_H_
#define BCAST_CORE_SIMULATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adapt/adapt_params.h"
#include "adapt/adapt_stats.h"
#include "broadcast/disk_config.h"
#include "broadcast/program.h"
#include "client/mapping.h"
#include "core/metrics.h"
#include "core/params.h"
#include "des/simulation.h"
#include "fault/recovery.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "obs/stats_stream.h"
#include "obs/stopwatch.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "pull/pull_params.h"
#include "pull/pull_stats.h"

namespace bcast {

namespace internal {
/// Named RNG sub-streams shared by every runner (simulator, analytic
/// model, updates): changing one experimental factor must never change
/// the randomness feeding another, and the analytic model must see the
/// exact same noise mapping the simulator does.
inline constexpr uint64_t kRequestStream = 1;
inline constexpr uint64_t kNoiseStream = 2;
inline constexpr uint64_t kProgramStream = 3;
inline constexpr uint64_t kUpdateStream = 7;
}  // namespace internal

/// \brief The server-side schedule one run broadcasts: the layout the
/// chosen `ScheduleOptimizer` designed, the (push-only) program over it,
/// and the optimizer's analytic expected-delay prediction.
struct ServerSchedule {
  DiskLayout layout;
  BroadcastProgram program;

  /// Expected wait (broadcast units, to transmission start) the optimizer
  /// predicts under the nominal access distribution; 0 when the schedule
  /// was built without probabilities (the historical delta path).
  double predicted_delay = 0.0;
};

/// \brief Everything a run produced.
struct SimResult {
  /// Measured-phase client metrics.
  ClientMetrics metrics{1};

  /// Requests spent warming the cache.
  uint64_t warmup_requests = 0;

  /// Simulated clock at the end of the run (broadcast units).
  double end_time = 0.0;

  /// Broadcast period of the generated program (slots).
  uint64_t period = 0;

  /// Empty (wasted) slots per period in the generated program.
  uint64_t empty_slots = 0;

  /// Logical pages whose mapping Noise actually moved.
  uint64_t perturbed_pages = 0;

  /// Wall-clock breakdown of the run.
  obs::PhaseTimings timings;

  /// Events the DES kernel dispatched during the run.
  uint64_t events_dispatched = 0;

  /// Channel-fault degradation accounting; populated (and
  /// `faults_active` set) only when `params.fault.Active()`.
  fault::FaultStats faults;
  bool faults_active = false;

  /// Hybrid push–pull accounting; populated (and `pull_active` set)
  /// only when `params.pull.Active()`.
  pull::PullStats pull_stats;
  bool pull_active = false;

  /// Adaptive-controller decision accounting; populated (and
  /// `adapt_active` set) only when `params.adapt.Active()`.
  adapt::AdaptStats adapt_stats;
  bool adapt_active = false;

  /// Measured-phase requests (and hits) against the pinned cold-page
  /// set (the slowest disk of the *initial* program). Populated when
  /// pull or adaptation is active; never emitted into run reports.
  uint64_t cold_requests = 0;
  uint64_t cold_hits = 0;

  /// Per-event-kind DES dispatch profile; populated (and
  /// `profile_active` set) only when `SimObservers::profile_des` was on.
  des::DesProfile profile;
  bool profile_active = false;

  /// The schedule optimizer's analytic expected-delay prediction for the
  /// program this run broadcast (0 when built without probabilities).
  double predicted_delay = 0.0;
};

/// \brief Optional observability hooks for a run. All default to off; a
/// null member costs the hot loop at most one pointer test, and none of
/// them can perturb the simulation (same events, same randomness).
struct SimObservers {
  /// Sampled per-request trace records (unowned).
  obs::TraceSink* trace = nullptr;

  /// Run-level counters, gauges, and histograms (unowned). The simulator
  /// records under the "sim/" prefix: requests, cache_hits,
  /// warmup_requests, events, the period/end_time gauges, and the
  /// response_slots / tuning_slots histograms.
  obs::MetricsRegistry* registry = nullptr;

  /// Chrome trace-event timeline (unowned). Spans and instants are
  /// emitted for the DES run, client phases, miss waits, cache
  /// evictions, fault-recovery episodes, pull service, and controller
  /// epochs. Observation only: the attached run stays bit-identical.
  obs::TimelineWriter* timeline = nullptr;

  /// Periodic stats stream (unowned). When set, a sampler event fires
  /// every `stats_interval` simulated slots and appends one JSONL
  /// snapshot; one exact final sample is appended after the run. The
  /// sampler adds events to the DES (visible in `events_dispatched`),
  /// so golden-report comparisons must keep it off.
  obs::StatsWriter* stats = nullptr;

  /// Slots between stats samples (>= 1; values below 1 are clamped).
  double stats_interval = 1000.0;

  /// Per-event-kind DES dispatch profiling (counts + wall-clock ns),
  /// surfaced as `profile_*` report extras. Wall-clock only; cannot
  /// perturb the simulation.
  bool profile_des = false;

  /// Simulated-time budget for the run; 0 = unbounded (the default, the
  /// historical behavior). When > 0 the event loop stops at this time and
  /// an unfinished client yields a Status error instead of a crash — the
  /// chaos harness's no-hang invariant (tools/bcastchaos) runs every
  /// adversarial scenario under a horizon. A run that finishes before the
  /// horizon is untouched by it (same events, same results).
  double horizon = 0.0;
};

/// \brief The `PageCatalog` a simulation exposes to its cache policy:
/// exact probabilities from the access generator, exact frequencies and
/// disk indices from the program through the mapping.
class SimCatalog : public PageCatalog {
 public:
  /// All referents must outlive the catalog.
  SimCatalog(const RequestSource* gen, const BroadcastProgram* program,
             const Mapping* mapping)
      : gen_(gen), program_(program), mapping_(mapping) {}

  double Probability(PageId page) const override {
    return gen_->Probability(page);
  }
  double Frequency(PageId page) const override {
    return program_->NormalizedFrequency(mapping_->ToPhysical(page));
  }
  DiskIndex DiskOf(PageId page) const override {
    return program_->DiskOf(mapping_->ToPhysical(page));
  }
  uint64_t NumDisks() const override { return program_->num_disks(); }

 private:
  const RequestSource* gen_;
  const BroadcastProgram* program_;
  const Mapping* mapping_;
};

/// \brief The nominal per-page access probabilities the server designs
/// against: the client's RegionZipf distribution over the hottest
/// `access_range` physical pages, padded with zeros to \p db_size.
/// Non-increasing hottest-first by construction (what the non-delta
/// optimizers require): a partial final region — whose true pmf is
/// hotter per page than the region before it, since the full region
/// weight covers fewer pages — is rescaled to uniform region width.
/// Exact otherwise — no sampling, no RNG. Mapping offset and
/// noise are deliberately ignored: the server designs for the advertised
/// hot-first ordering, and the client-side mapping perturbations are the
/// paper's misalignment experiments, not server knowledge.
std::vector<double> NominalAccessProbs(uint64_t access_range,
                                       uint64_t region_size, double theta,
                                       uint64_t db_size);

/// \brief Builds the full server schedule \p params describes: for the
/// multi-disk program, the configured `ScheduleOptimizer` ("delta",
/// "ksy", "rbo") designs layout and program together; the skewed and
/// random study programs bypass the optimizer frontier and carry the
/// Δ-rule (or explicit-frequency) layout.
Result<ServerSchedule> BuildSchedule(const SimParams& params);

/// \brief Builds the broadcast program \p params describes (multi-disk,
/// skewed, or random; the paper's Delta rule or explicit frequencies).
/// A thin wrapper over `BuildSchedule` for callers that only need the
/// program (the chaos version axis, the updates runner).
Result<BroadcastProgram> BuildProgram(const SimParams& params);

/// \brief Runs one complete simulation. Deterministic in `params.seed`
/// (observability hooks never touch simulation randomness).
Result<SimResult> RunSimulation(const SimParams& params);

/// \brief Same, with observability hooks attached.
Result<SimResult> RunSimulation(const SimParams& params,
                                const SimObservers& observers);

/// \brief Renders one run as a machine-readable report: params, program
/// geometry, response/tuning percentiles, per-disk service counts, and
/// wall-clock throughput. Callers aggregating several seeds can merge
/// `SimResult`s first (see `ClientMetrics::Merge`) and adjust
/// `report.seeds`.
obs::RunReport MakeRunReport(const SimParams& params,
                             const SimResult& result,
                             const std::string& tool);

/// \brief Appends the channel-fault extras (rates, delivery ratio, retry
/// and resync accounting) to \p report. Call only for active fault
/// params: an inactive run's report must stay byte-identical to the
/// pre-fault format.
void AppendFaultExtras(const fault::FaultParams& params,
                       const fault::FaultStats& stats,
                       obs::RunReport* report);

/// \brief Appends the hybrid push–pull extras (configured capacity,
/// uplink accounting, service mix, pull-vs-push latency, cold-page
/// latency) to \p report. Call only for active pull params: a push-only
/// run's report must stay byte-identical to the pre-pull format.
void AppendPullExtras(const pull::PullParams& params,
                      const pull::PullStats& stats,
                      obs::RunReport* report);

/// \brief Appends the adaptive-controller extras (configured knobs,
/// epoch/rebuild/promotion counts, slot trajectory, pinned cold-page
/// latency) to \p report. Call only for active adapt params: a static
/// run's report must stay byte-identical to the pre-adapt format.
void AppendAdaptExtras(const adapt::AdaptParams& params,
                       const adapt::AdaptStats& stats,
                       obs::RunReport* report);

/// \brief Appends the DES dispatch profile (`profile_<kind>_dispatches`
/// and `profile_<kind>_cpu_ns` per event kind, plus totals) to
/// \p report. Call only when profiling ran: an unprofiled run's report
/// must stay byte-identical to the pre-profiling format.
void AppendProfileExtras(const des::DesProfile& profile,
                         obs::RunReport* report);

}  // namespace bcast

#endif  // BCAST_CORE_SIMULATOR_H_
