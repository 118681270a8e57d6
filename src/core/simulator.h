/// \file simulator.h
/// \brief End-to-end wiring: params → program + mapping + cache + client →
/// one simulated run → results.
///
/// `BuildSchedule`, `BuildServerWorld` and `BuildClientWorld` are the one
/// place a run's schedule, its server side and a client's world are
/// built; the single-client run (`RunSimulation`, which updates mode
/// also runs on), the population engine and the analytic model call them.
/// A single run is a population of one there
/// (`PopulationFromSimParams(params, 1)`, client 0), and what it does
/// differently is passed in as data.

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
#include "adapt/controller.h"
#include "adapt/loss_monitor.h"
#include "broadcast/channel.h"
#include "broadcast/disk_config.h"
#include "broadcast/program.h"
#include "client/access_generator.h"
#include "client/client.h"
#include "client/mapping.h"
#include "common/stats.h"
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
#include "pull/pull_server.h"
#include "pull/pull_stats.h"

namespace bcast {

struct ClientSpec;
struct MultiClientParams;
class UpdateModel;

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

/// \brief Everything a run produced: one client's run, or a population's
/// (then `per_client` holds each client's metrics and the across-client
/// statistic, and the run-wide fields total the population).
struct SimResult {
  /// Measured-phase client metrics; for a population, every client's
  /// merged (histograms, hits, per-disk counts).
  ClientMetrics metrics{1};

  /// A population's per-client metrics, in `clients` order; empty for a
  /// single run.
  std::vector<ClientMetrics> per_client;

  /// Statistics over the per-client mean response times: the
  /// population's fairness picture (max/min spread, etc.).
  RunningStat response_across_clients;

  /// Requests spent warming the cache (summed over clients).
  uint64_t warmup_requests = 0;

  /// Simulated clock at the end of the run (broadcast units); summed
  /// over merged runs.
  double end_time = 0.0;

  /// Consecutive seeds merged into this result.
  uint64_t seeds = 1;

  /// Broadcast period of the generated program (slots).
  uint64_t period = 0;

  /// Empty (wasted) slots per period in the generated program.
  uint64_t empty_slots = 0;

  /// Logical pages whose mapping Noise actually moved (summed over
  /// clients).
  uint64_t perturbed_pages = 0;

  /// Wall-clock breakdown of the run. A population's warm-up and
  /// measured phases are not separable per client: its event loop
  /// lands in `measured_seconds`.
  obs::PhaseTimings timings;

  /// Events the DES kernel dispatched during the run.
  uint64_t events_dispatched = 0;

  /// Channel-fault degradation accounting (merged over clients);
  /// populated (and `faults_active` set) only when `params.fault.Active()`.
  fault::FaultStats faults;
  bool faults_active = false;

  /// Hybrid push–pull accounting of the (shared) pull server; populated
  /// (and `pull_active` set) only when `params.pull.Active()`.
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

  /// Folds the single run of the next seed into this one: counts,
  /// histograms, timings, event counts and `end_time` add up, and the
  /// program geometry and prediction stay this run's. Population results
  /// do not merge.
  void Merge(const SimResult& other);
};

/// \brief Optional observability hooks for a run. All default to off; a
/// null member costs the hot loop at most one pointer test, and none of
/// them can perturb the simulation (same events, same randomness).
struct SimObservers {
  /// Sampled per-request trace records (unowned).
  obs::TraceSink* trace = nullptr;

  /// Run-level counters, gauges, and histograms (unowned). Both runners
  /// record the finished run into it with `RecordRunMetrics`.
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
  SimCatalog(const AccessGenerator* gen, const BroadcastProgram* program,
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
  const AccessGenerator* gen_;
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

/// \brief The stats-stream sampler both runners share. A sample folds
/// the running totals of every client world `Add`ed to it; `Take`
/// completes it and opens the next window. The cumulative and window
/// means are response-time sums over request counts.
class StatsSampler {
 public:
  /// \p out stamps each sample's wall clock (unowned).
  explicit StatsSampler(const obs::StatsWriter* out) : out_(out) {}

  /// Folds \p world's measured requests, hits, response-time sum,
  /// per-disk mix, warm-up requests and fault counters into the sample.
  void Add(const ClientWorld& world);

  /// Completes the sample at simulated time \p t after \p events DES
  /// events: means, window fields and, when \p pull is set, the pull
  /// server's queue depth and service count. The caller adds
  /// mode-specific fields and writes it.
  obs::StatsSample Take(double t, uint64_t events,
                        const pull::PullServer* pull, bool final_sample);

 private:
  const obs::StatsWriter* out_;
  obs::StatsSample next_;
  double rt_sum_ = 0.0;
  uint64_t prev_requests_ = 0;
  uint64_t prev_hits_ = 0;
  double prev_rt_sum_ = 0.0;
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
  /// knowledge (tuning metric only), the `--adapt_reopt` monitor and the
  /// updates-mode model (attached to the built client).
  NoiseModel::Destination noise_destination =
      NoiseModel::Destination::kUniformDisk;
  bool knows_schedule = false;
  adapt::AccessMonitor* access = nullptr;
  UpdateModel* updates = nullptr;
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

/// \brief The schedule of a single run: the schedule of
/// `PopulationFromSimParams(params, 1)` — bit-identical, since the mean
/// of one distribution is that distribution.
Result<ServerSchedule> BuildSchedule(const SimParams& params);

/// \brief The cold-page set pinned to the initial \p program, indexed by
/// physical page: the slowest disk's pages, whose fate the adaptive
/// gates and the pull ablations track across runs. Empty unless pull or
/// adaptation is on and the program has more than one disk.
std::vector<bool> ColdPageSet(const MultiClientParams& params,
                              const BroadcastProgram& program);

/// \brief The server side of one run: the subsystems the paper
/// centralizes. `BuildServerWorld` is the only place they are built; each
/// member is null (or empty) when its feature is off.
struct ServerWorld {
  std::unique_ptr<pull::PullServer> pull;         ///< active pull
  std::unique_ptr<adapt::LossMonitor> loss;       ///< adaptation + faults
  std::unique_ptr<adapt::AccessMonitor> access;   ///< `--adapt_reopt`
  std::unique_ptr<adapt::Controller> controller;  ///< adaptation
  std::vector<bool> cold_pages;                   ///< `ColdPageSet`

  /// True when the program on the air carries pull capacity.
  bool pull_enabled() const { return pull != nullptr && pull->enabled(); }
};

/// \brief What the caller supplies to `BuildServerWorld`: everything a
/// single run and the population engine do differently on the server
/// side.
struct ServerInputs {
  /// The simulation the server lives on (its attached timeline gets the
  /// pull and controller tracks) and the channel it steers: a single
  /// run's own, or the engine's coordinator simulation and its
  /// client-less channel. Both must outlive the server world.
  des::Simulation* sim = nullptr;
  BroadcastChannel* channel = nullptr;

  /// How pull transmissions reach clients. Unset (single mode), an
  /// enabled pull server registers its waiters on `channel`; the engine
  /// supplies the fanout that mirrors each transmission into its shards.
  std::function<void(PageId, double)> pull_fanout;

  /// The controller's `liveness` and `on_switch` hooks (unset in single
  /// mode); `BuildServerWorld` fills in the subsystems it steers.
  adapt::Controller::Hooks controller_hooks;
};

/// \brief Builds the server side of a run over \p schedule (the one
/// \p params was built into): the pull server, the loss and
/// `--adapt_reopt` access monitors, the adaptive controller and the
/// cold-page set, and names the pull and controller timeline tracks.
/// Schedules no event; the caller starts the controller.
ServerWorld BuildServerWorld(const MultiClientParams& params,
                             const ServerSchedule& schedule,
                             ServerInputs in);

/// \brief The schedule-version chain of `fault.process.version_every`:
/// every `every` slots the server re-announces its program (same
/// content, new epoch), which re-arms every in-flight wait through the
/// resync path. Each lane of the simulation runs its own chain, which
/// dies with the lane's last live process, so the event queue still
/// drains.
class VersionTicker {
 public:
  VersionTicker() = default;
  VersionTicker(const VersionTicker&) = delete;
  VersionTicker& operator=(const VersionTicker&) = delete;

  /// Arms one chain per lane of \p sim on \p channel (entering each
  /// lane in turn); does nothing when \p every is 0.
  void Start(des::Simulation* sim, BroadcastChannel* channel, double every);

  /// Re-announces performed by the longest chain.
  uint64_t bumps() const;

  /// Tick events fired, all chains: every bump plus each chain's final
  /// dead firing.
  uint64_t events() const { return events_; }

  /// Tick events fired by the longest chain.
  uint64_t max_lane_events() const;

 private:
  // One tick of the entered lane's chain: re-announces the program and
  // schedules the next tick while the lane has live processes.
  void Tick();

  des::Simulation* sim_ = nullptr;
  BroadcastChannel* channel_ = nullptr;
  double every_ = 0.0;
  uint64_t events_ = 0;
  std::vector<uint64_t> lane_bumps_;
  std::vector<uint64_t> lane_events_;
};

/// \brief Rejects a schedule-version cadence under which client \p client
/// could wait forever: a version bump re-phases \p program (its cycle
/// restarts at the bump), so a requested page is received on push only
/// if its first transmission in a cycle — start offset, one slot of air,
/// and up to `slot_jitter` of smeared completion — ends by the next
/// bump. Checks every page the client can request (its logical pages
/// [0, \p access_range) through \p mapping); OK when bumps are off.
Status CheckVersionCadence(const fault::ProcessFaultParams& process,
                           const BroadcastProgram& program,
                           const Mapping& mapping, uint64_t access_range,
                           uint64_t client);

/// \brief Builds the parts of client `in.id` that need no simulation —
/// mapping, access generator, catalog, cache and (active faults)
/// receiver — for `BuildClientWorld` and the analytic model. Reads
/// `params`, `layout`, `program` and, when set, `hybrid` and `timeline`
/// of \p shared, and `server_faults`/`loss_sink` of \p in.
Status BuildClientParts(const WorldShared& shared, const ClientInputs& in,
                        ClientWorld* out);

/// \brief Builds client `in.id`'s whole world: its parts, its crash hook,
/// and the `Client` ready to be spawned on `in.sim`.
Status BuildClientWorld(const WorldShared& shared, ClientInputs in,
                        ClientWorld* out);

/// \brief Runs one complete simulation. Deterministic in `params.seed`
/// (observability hooks never touch simulation randomness).
Result<SimResult> RunSimulation(const SimParams& params);

/// \brief Same, with observability hooks attached and, for updates mode,
/// \p updates riding on the client (`ClientRunConfig::updates`).
Result<SimResult> RunSimulation(const SimParams& params,
                                const SimObservers& observers,
                                UpdateModel* updates = nullptr);

/// \brief Records a finished run into \p registry: the "sim/" counters
/// (requests, cache_hits, warmup_requests, events), the period and
/// end_time gauges and the response_slots / tuning_slots histograms, plus
/// the "fault/", "pull/" and "adapt/" blocks of the active subsystems.
void RecordRunMetrics(const MultiClientParams& params,
                      const SimResult& result,
                      obs::MetricsRegistry* registry);

/// \brief Renders a run as a machine-readable report: params, program
/// geometry, response/tuning percentiles, per-disk service counts, and
/// wall-clock throughput. A population result (non-empty `per_client`)
/// reports mode "population" with the fairness extras and, up to 256
/// clients, one response block per client. \p config is the one-line
/// configuration identity (callers driving a population from a
/// SimParams template pass `base.ToString()`). Seeds merged with
/// `SimResult::Merge` report as one.
obs::RunReport MakeRunReport(const MultiClientParams& params,
                             const SimResult& result,
                             const std::string& config,
                             const std::string& tool);

/// \brief The report of a single run of \p params.
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
