/// \file simulator.h
/// \brief End-to-end wiring: params → program + mapping + cache + client →
/// one simulated run → results.
///
/// `BuildSchedule` and `BuildClientWorld` are the one place a run's
/// schedule and a client's world are built; the single, updates and
/// population runners and the analytic model all call them. A single run
/// is a population of one there (`PopulationFromSimParams(params, 1)`,
/// client 0), and what it does differently is passed in as data.

#ifndef BCAST_CORE_SIMULATOR_H_
#define BCAST_CORE_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adapt/adapt_params.h"
#include "adapt/adapt_stats.h"
#include "adapt/access_monitor.h"
#include "adapt/loss_monitor.h"
#include "broadcast/channel.h"
#include "broadcast/disk_config.h"
#include "broadcast/program.h"
#include "client/access_generator.h"
#include "client/client.h"
#include "client/mapping.h"
#include "core/metrics.h"
#include "core/params.h"
#include "des/simulation.h"
#include "fault/process_faults.h"
#include "fault/recovery.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "obs/stats_stream.h"
#include "obs/stopwatch.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "pull/hybrid.h"
#include "pull/pull_client.h"
#include "pull/pull_params.h"
#include "pull/pull_stats.h"

namespace bcast {

struct ClientSpec;
struct MultiClientParams;

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
/// chosen `ScheduleOptimizer` designed, the program on the air over it
/// (with active pull, the optimizer's program with pull slots interleaved
/// into every minor cycle), where those pull slots sit, and the
/// optimizer's analytic expected-delay prediction.
struct ServerSchedule {
  DiskLayout layout;
  BroadcastProgram program;
  pull::HybridLayout hybrid;  ///< disabled when pull is off

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

  /// Periodic stats stream (unowned). When set, the run steps its
  /// event loop to every multiple of `stats_interval` simulated slots
  /// while a client is unfinished and appends one JSONL snapshot there;
  /// one exact final sample is appended after the run. Sampling adds no
  /// DES events: an observed run equals an unobserved one except that
  /// `end_time` may round up to the last sample time.
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

/// \brief One client's private machinery, in index-stable storage so the
/// spawned coroutine can reference it. `BuildClientParts` fills the
/// first five members, `BuildClientWorld` all of them.
struct ClientWorld {
  std::unique_ptr<Mapping> mapping;
  std::unique_ptr<AccessGenerator> gen;
  std::unique_ptr<SimCatalog> catalog;
  std::unique_ptr<CachePolicy> cache;
  std::unique_ptr<fault::Receiver> receiver;  // null when faults are off
  std::unique_ptr<pull::PullClient> pull;     // null when pull is off
  std::unique_ptr<Client> client;
};

/// \brief What every client world of a run shares (read-only, unowned;
/// all must outlive the worlds built against it).
struct WorldShared {
  const MultiClientParams* params = nullptr;
  const DiskLayout* layout = nullptr;
  const BroadcastProgram* program = nullptr;      ///< initial on-air program
  const pull::HybridLayout* hybrid = nullptr;     ///< may be null
  const std::vector<bool>* cold_pages = nullptr;  ///< may be null or empty
  obs::TimelineWriter* timeline = nullptr;        ///< may be null
  obs::TraceSink* trace = nullptr;                ///< may be null
};

/// \brief What the caller supplies for client `id`
/// (`params->clients[id]`): everything a single run and a population
/// member do differently.
struct ClientInputs {
  uint64_t id = 0;

  /// A single run passes the master seed's kNoiseStream/kRequestStream
  /// splits; population client c splits its sub-stream 1000 + c.
  Rng noise_rng;
  Rng request_rng;

  /// The simulation the client joins — a single run's, or its shard's —
  /// and that simulation's server fault plane and adaptive loss monitor
  /// (each null when off).
  des::Simulation* sim = nullptr;
  BroadcastChannel* channel = nullptr;
  fault::ServerFaultPlane* server_faults = nullptr;
  adapt::LossMonitor* loss_sink = nullptr;

  /// The pull requester, already attached to its server: a direct
  /// `PullServer` in single mode, the shard transport in the engine.
  /// Null when pull is off.
  std::unique_ptr<pull::PullClient> pull;

  /// Where measured cold-page waits land; may be null.
  obs::LogHistogram* cold_wait = nullptr;

  /// Read only by single mode: Noise's destination rule, schedule
  /// knowledge (tuning metric only) and the `--adapt_reopt` monitor.
  NoiseModel::Destination noise_destination =
      NoiseModel::Destination::kUniformDisk;
  bool knows_schedule = false;
  adapt::AccessMonitor* access = nullptr;
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

/// \brief Builds the schedule a population broadcasts: for the
/// multi-disk program, the configured `ScheduleOptimizer` ("delta",
/// "ksy", "rbo") designs layout and program together from
/// `PopulationNominalProbs`; the skewed and random study programs bypass
/// the optimizer frontier and carry the Δ-rule (or explicit-frequency)
/// layout. Active pull interleaves its slots last.
Result<ServerSchedule> BuildSchedule(const MultiClientParams& params);

/// \brief The schedule of a single run: validates \p params, then builds
/// the schedule of `PopulationFromSimParams(params, 1)` — bit-identical,
/// since the mean of one distribution is that distribution.
Result<ServerSchedule> BuildSchedule(const SimParams& params);

/// \brief The cold-page set pinned to the initial \p program, indexed by
/// physical page: the slowest disk's pages, whose fate the adaptive
/// gates and the pull ablations track across runs. Empty unless pull or
/// adaptation is on and the program has more than one disk.
std::vector<bool> ColdPageSet(const MultiClientParams& params,
                              const BroadcastProgram& program);

/// \brief The schedule-version chain of `fault.process.version_every`:
/// every `every` slots the server re-announces its program (same
/// content, new epoch), which re-arms every in-flight wait through the
/// resync path. The chain dies with the simulation's last live process,
/// so the event queue still drains.
class VersionTicker {
 public:
  VersionTicker() = default;
  VersionTicker(const VersionTicker&) = delete;
  VersionTicker& operator=(const VersionTicker&) = delete;

  /// Arms the chain on \p channel; does nothing when \p every is 0.
  void Start(des::Simulation* sim, BroadcastChannel* channel, double every);

  /// Re-announces performed.
  uint64_t bumps() const { return bumps_; }

  /// Tick events fired: every bump plus the final dead-chain firing.
  uint64_t events() const { return events_; }

 private:
  std::function<void()> tick_;
  uint64_t bumps_ = 0;
  uint64_t events_ = 0;
};

/// \brief Builds the parts of client `in.id` that need no simulation —
/// mapping, access generator, catalog, cache and (active faults)
/// receiver — for the updates runner and the analytic model. Reads `params`, `layout`, `program` and, when set, `hybrid`
/// and `timeline` of \p shared, and `server_faults`/`loss_sink` of \p in.
Status BuildClientParts(const WorldShared& shared, const ClientInputs& in,
                        ClientWorld* out);

/// \brief Builds client `in.id`'s whole world: its parts, its crash hook,
/// and the `Client` ready to be spawned on `in.sim`.
Status BuildClientWorld(const WorldShared& shared, ClientInputs in,
                        ClientWorld* out);

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
