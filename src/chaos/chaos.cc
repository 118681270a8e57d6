#include "chaos/chaos.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "check/invariants.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/multi_client.h"
#include "core/simulator.h"
#include "pop/engine.h"
#include "pop/pop_params.h"

namespace bcast::chaos {
namespace {

// Scenario-generation sub-streams: one per concern, so adding a draw to
// one axis never reshuffles another's values across the harness history.
constexpr uint64_t kGeometryStream = 1;
constexpr uint64_t kWorkloadStream = 2;
constexpr uint64_t kChannelStream = 3;
constexpr uint64_t kProcessStream = 4;
constexpr uint64_t kPullStream = 5;
constexpr uint64_t kPopStream = 6;
constexpr uint64_t kOptimizerStream = 7;

double Uniform(Rng* rng, double lo, double hi) {
  return lo + rng->NextDouble() * (hi - lo);
}

// Looks up a report extra; NaN when absent (comparisons then fail the
// presence test, never silently pass).
double Extra(const obs::RunReport& report, const std::string& key) {
  for (const auto& [k, v] : report.extra) {
    if (k == key) return v;
  }
  return std::nan("");
}

bool HasExtra(const obs::RunReport& report, const std::string& key) {
  for (const auto& [k, v] : report.extra) {
    if (k == key) return true;
  }
  return false;
}

// Serializes a report with every wall-clock-dependent field zeroed: what
// remains is exactly the simulation's deterministic output.
std::string DeterministicBytes(obs::RunReport report) {
  report.timings = obs::PhaseTimings{};
  report.slots_per_second = 0.0;
  report.events_per_second = 0.0;
  std::ostringstream out;
  report.WriteJson(out);
  return out.str();
}

}  // namespace

ChaosAxes ChaosAxes::None() {
  ChaosAxes axes;
  axes.loss = axes.corrupt = axes.doze = axes.crash = axes.stall =
      axes.jitter = axes.version = axes.pull = axes.pop = axes.optimizer =
          false;
  return axes;
}

bool ChaosAxes::Empty() const {
  return !loss && !corrupt && !doze && !crash && !stall && !jitter &&
         !version && !pull && !pop && !optimizer;
}

std::string ChaosAxes::ToString() const {
  std::string s;
  auto append = [&s](bool on, const char* name) {
    if (!on) return;
    if (!s.empty()) s += ",";
    s += name;
  };
  append(loss, "loss");
  append(corrupt, "corrupt");
  append(doze, "doze");
  append(crash, "crash");
  append(stall, "stall");
  append(jitter, "jitter");
  append(version, "version");
  append(pull, "pull");
  append(pop, "pop");
  append(optimizer, "optimizer");
  return s.empty() ? "none" : s;
}

ChaosScenario GenerateScenario(uint64_t chaos_seed, const ChaosAxes& axes) {
  ChaosScenario scenario;
  scenario.chaos_seed = chaos_seed;
  scenario.axes = axes;
  SimParams& p = scenario.params;
  const Rng root(chaos_seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);

  // --- Geometry: small databases so hundreds of scenarios stay cheap.
  {
    Rng rng = root.Split(kGeometryStream);
    static constexpr uint64_t kDisks[][4] = {
        {60, 240, 300, 0},
        {50, 120, 0, 0},
        {100, 200, 300, 0},
        {40, 160, 200, 200},
    };
    const uint64_t* sizes = kDisks[rng.NextBounded(4)];
    p.disk_sizes.clear();
    for (int i = 0; i < 4 && sizes[i] != 0; ++i) {
      p.disk_sizes.push_back(sizes[i]);
    }
    p.delta = 1 + rng.NextBounded(3);
    p.program_kind = ProgramKind::kMultiDisk;
  }
  const uint64_t db = p.ServerDbSize();

  // --- Workload and policy.
  {
    Rng rng = root.Split(kWorkloadStream);
    p.access_range = std::max<uint64_t>(
        30, static_cast<uint64_t>(static_cast<double>(db) *
                                  Uniform(&rng, 0.3, 0.9)));
    p.region_size = 10 * (1 + rng.NextBounded(3));
    p.theta = Uniform(&rng, 0.4, 1.2);
    p.cache_size =
        5 + rng.NextBounded(std::max<uint64_t>(5, p.access_range / 3));
    p.offset = rng.NextBounded(p.cache_size + 1);
    p.think_time = Uniform(&rng, 1.0, 3.0);
    p.measured_requests = 200 + rng.NextBounded(301);
    p.knows_schedule = rng.NextBernoulli(0.5);
    static constexpr PolicyKind kPolicies[] = {
        PolicyKind::kLru, PolicyKind::kPix, PolicyKind::kLix,
        PolicyKind::kClock};
    p.policy = kPolicies[rng.NextBounded(4)];
    // Cold crash–restart can wipe the cache faster than a major cycle
    // refills it, so a warmup gated only on cache fill would livelock by
    // construction. Bound warmup by requests instead: the harness judges
    // liveness and accounting, not steady-state hit rates. (Derived, not
    // drawn — adding a draw here would reshuffle every later stream.)
    p.max_warmup_requests = 5 * p.cache_size + 200;
    p.seed = chaos_seed * 10007 + 1;
    p.fault.fault_seed = chaos_seed * 6364136223846793005ull + 17;
  }

  // --- Optimizer axis: the schedule on the air. Drawn before the
  // process axes so the version-bump cadence below is scaled to the
  // period of the program that actually broadcasts (rbo's power-of-two
  // period can be several times the Δ-rule's). The draw happens whether
  // or not the axis is enabled, like every other axis.
  {
    Rng rng = root.Split(kOptimizerStream);
    static constexpr const char* kOptimizers[] = {"delta", "ksy", "rbo"};
    const char* name = kOptimizers[rng.NextBounded(3)];
    if (axes.optimizer) {
      // Validate rejects pull+rbo (the hybrid program stretch breaks the
      // locator's residue arithmetic); downgrade to ksy — a deterministic
      // transform of the same draw, so no sub-stream reshuffles.
      if (axes.pull && std::string(name) == "rbo") name = "ksy";
      p.optimizer = name;
    }
  }

  // The on-air period drives both the version-bump cadence and the
  // liveness horizon below: rbo's power-of-two periods (whose coldest
  // pages broadcast once per period) can dwarf the Δ-rule's major
  // cycle, so budgets calibrated in Δ-rule cycles would flag
  // slow-but-live bit-reversal runs as hangs.
  const double period = [&] {
    Result<ServerSchedule> schedule = BuildSchedule(p);
    return schedule.ok() ? static_cast<double>(schedule->program.period())
                         : static_cast<double>(db);
  }();

  // --- Channel axes. Every value is drawn whether or not its axis is
  // enabled: disabling one axis must not reshuffle the others.
  {
    Rng rng = root.Split(kChannelStream);
    const double loss = Uniform(&rng, 0.05, 0.30);
    const double burst = rng.NextBernoulli(0.5) ? Uniform(&rng, 2.0, 5.0)
                                                : 0.0;
    const double corrupt = Uniform(&rng, 0.02, 0.15);
    const double doze_for = Uniform(&rng, 10.0, 60.0);
    const double awake_for = Uniform(&rng, 40.0, 160.0);
    if (axes.loss) {
      p.fault.loss = loss;
      p.fault.burst_len = burst;
    }
    if (axes.corrupt) p.fault.corrupt = corrupt;
    if (axes.doze) {
      p.fault.doze_for = doze_for;
      p.fault.awake_for = awake_for;
    }
  }

  // --- Process axes.
  {
    Rng rng = root.Split(kProcessStream);
    const double crash_every = Uniform(&rng, 3000.0, 20000.0);
    const double crash_down = Uniform(&rng, 0.0, 300.0);
    const bool crash_cold = rng.NextBernoulli(0.5);
    const double stall_every = Uniform(&rng, 4000.0, 30000.0);
    const double stall_len = Uniform(&rng, 20.0, 300.0);
    const double jitter = Uniform(&rng, 0.05, 0.95);
    const double version_every = Uniform(&rng, 1500.0, 15000.0);
    if (axes.crash) {
      p.fault.process.crash_every = crash_every;
      p.fault.process.crash_down = crash_down;
      p.fault.process.crash_cold = crash_cold;
    }
    if (axes.stall) {
      p.fault.process.stall_every = stall_every;
      p.fault.process.stall_len = stall_len;
    }
    if (axes.jitter) p.fault.process.slot_jitter = jitter;
    if (axes.version) {
      // A version bump re-anchors the program at the bump time, so a
      // cadence shorter than one on-air period starves the pages late in
      // the period by construction — no listener could ever catch them.
      // Rescale the draw onto [2.5, 8] program periods (the 2.5 floor
      // also clears the hybrid program's pull-slot stretch). This is a
      // deterministic transform of the same draw, so the other axes'
      // sub-streams stay untouched.
      const double factor =
          2.5 + (version_every - 1500.0) / 13500.0 * 5.5;
      p.fault.process.version_every = period * factor;
    }
  }

  // --- Pull axis (the uplink books under crashes).
  {
    Rng rng = root.Split(kPullStream);
    const uint64_t slots = 1 + rng.NextBounded(2);
    const uint64_t cap = 1 + rng.NextBounded(2);
    const double threshold = Uniform(&rng, 0.0, 20.0);
    const uint64_t timeout = 2 + rng.NextBounded(4);
    if (axes.pull) {
      p.pull.pull_slots = slots;
      p.pull.uplink_cap = cap;
      p.pull.threshold = threshold;
      p.pull.timeout_services = timeout;
    }
  }

  // --- Population axis: a small sharded population instead of the
  // single client, through the population engine at a drawn shard
  // count. Scenarios stay cheap (2-5 clients); the point is the fault
  // axes composing with barrier rounds, not scale.
  {
    Rng rng = root.Split(kPopStream);
    const uint64_t clients = 2 + rng.NextBounded(4);
    const uint64_t shards = 1 + rng.NextBounded(3);
    if (axes.pop) {
      scenario.clients = clients;
      scenario.shards = std::min(shards, clients);
    }
  }

  // A generous liveness budget: worst-case wait (a few on-air periods,
  // stalls, crash downtime, think time) per request across both phases,
  // plus fixed slack. The horizon only costs anything when something
  // actually hangs.
  scenario.horizon =
      500000.0 + (2000.0 + 3.0 * period) *
                     static_cast<double>(p.measured_requests +
                                         p.max_warmup_requests);
  return scenario;
}

namespace {

// Runs a population scenario through the engine at \p shards and
// renders its report (no pop extras: identity comparisons need bytes
// that do not mention the execution layout).
Result<obs::RunReport> RunPopulationScenario(const ChaosScenario& scenario,
                                             uint64_t shards,
                                             obs::TimelineWriter* timeline) {
  // Every client shares the drawn workload shape with its interest
  // shifted around the database, exactly as bcastsim --mode=population
  // does.
  const MultiClientParams params =
      PopulationFromSimParams(scenario.params, scenario.clients);
  pop::PopParams pp;
  pp.clients = scenario.clients;
  pp.shards = shards;
  SimObservers observers;
  observers.horizon = scenario.horizon;
  observers.timeline = timeline;
  Result<MultiClientResult> result =
      pop::RunPopulationSimulation(params, pp, observers);
  if (!result.ok()) return result.status();
  return MakePopulationRunReport(params, *result,
                                 scenario.params.ToString(), "bcastchaos");
}

}  // namespace

ChaosOutcome RunScenario(const ChaosScenario& scenario,
                         const ReportMutator& mutate,
                         obs::TimelineWriter* timeline) {
  ChaosOutcome outcome;
  if (scenario.clients > 1) {
    Result<obs::RunReport> report =
        RunPopulationScenario(scenario, scenario.shards, timeline);
    if (!report.ok()) {
      outcome.violations.push_back(
          {"no_hang", report.status().ToString()});
      return outcome;
    }
    outcome.completed = true;
    outcome.report = std::move(*report);
  } else {
    SimObservers observers;
    observers.horizon = scenario.horizon;
    observers.timeline = timeline;
    Result<SimResult> result = RunSimulation(scenario.params, observers);
    if (!result.ok()) {
      outcome.violations.push_back(
          {"no_hang", result.status().ToString()});
      return outcome;
    }
    outcome.completed = true;
    outcome.report =
        MakeRunReport(scenario.params, *result, "bcastchaos");
  }
  if (mutate) mutate(&outcome.report);
  const obs::RunReport& report = outcome.report;

  // Response-time books: exactly the configured number of measured
  // requests — per client, each counted once, crash or no crash.
  const uint64_t expected_requests =
      scenario.params.measured_requests * scenario.clients;
  if (report.requests != expected_requests) {
    outcome.violations.push_back(
        {"measured_count",
         StrFormat("report counts %llu measured requests, configured %llu",
                   static_cast<unsigned long long>(report.requests),
                   static_cast<unsigned long long>(expected_requests))});
  }

  // Structural report invariants (percentiles, request accounting, and —
  // when fault extras are present — reception accounting).
  check::CheckList checks = check::CheckReportInvariants(report);
  for (const check::Check& c : checks.checks()) {
    if (!c.ok) outcome.violations.push_back({c.name, c.detail});
  }

  // Uplink books: every issued request was accepted or dropped, even
  // when a crash orphaned it mid-flight.
  if (HasExtra(report, "pull_requests")) {
    const double requests = Extra(report, "pull_requests");
    const double re_requests = Extra(report, "pull_re_requests");
    const double accepted = Extra(report, "pull_uplink_accepted");
    const double dropped = Extra(report, "pull_uplink_dropped");
    const double lost = Extra(report, "pull_uplink_lost");
    const double serviced = Extra(report, "pull_serviced");
    const double opportunities = Extra(report, "pull_opportunities");
    if (accepted + dropped != requests + re_requests) {
      outcome.violations.push_back(
          {"uplink_books",
           StrFormat("accepted %g + dropped %g != requests %g + "
                     "re_requests %g",
                     accepted, dropped, requests, re_requests)});
    }
    if (lost > accepted) {
      outcome.violations.push_back(
          {"uplink_lost_bound",
           StrFormat("lost %g > accepted %g", lost, accepted)});
    }
    if (serviced > std::min(accepted - lost, opportunities)) {
      outcome.violations.push_back(
          {"pull_service_bound",
           StrFormat("serviced %g > min(accepted %g - lost %g, "
                     "opportunities %g)",
                     serviced, accepted, lost, opportunities)});
    }
  }
  return outcome;
}

std::optional<ChaosViolation> CheckShardIdentity(
    const ChaosScenario& scenario) {
  if (scenario.clients <= 1) return std::nullopt;
  std::string bytes[2];
  const uint64_t shard_counts[2] = {scenario.shards, 1};
  for (int i = 0; i < 2; ++i) {
    Result<obs::RunReport> report =
        RunPopulationScenario(scenario, shard_counts[i], nullptr);
    if (!report.ok()) {
      return ChaosViolation{
          "shard_identity",
          StrFormat("population run failed at shards=%llu: %s",
                    static_cast<unsigned long long>(shard_counts[i]),
                    report.status().ToString().c_str())};
    }
    bytes[i] = DeterministicBytes(std::move(*report));
  }
  if (bytes[0] != bytes[1]) {
    return ChaosViolation{
        "shard_identity",
        StrFormat("reports differ between shards=%llu and shards=1",
                  static_cast<unsigned long long>(scenario.shards))};
  }
  return std::nullopt;
}

ChaosAxes MinimizeAxes(uint64_t chaos_seed, const ChaosAxes& axes) {
  auto fails = [chaos_seed](const ChaosAxes& candidate) {
    return !RunScenario(GenerateScenario(chaos_seed, candidate)).ok();
  };
  ChaosAxes current = axes;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    bool* members[] = {&current.loss,  &current.corrupt, &current.doze,
                       &current.crash, &current.stall,   &current.jitter,
                       &current.version, &current.pull, &current.pop,
                       &current.optimizer};
    for (bool* axis : members) {
      if (!*axis) continue;
      *axis = false;
      if (fails(current)) {
        shrunk = true;  // still failing without it: keep it off
      } else {
        *axis = true;  // needed for the failure: restore
      }
    }
  }
  return current;
}

std::string ReproCommand(uint64_t chaos_seed) {
  return StrFormat("bcastchaos --chaos_seed %llu --replay",
                   static_cast<unsigned long long>(chaos_seed));
}

}  // namespace bcast::chaos
