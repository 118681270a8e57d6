// bcastchaos — seeded chaos harness over the whole fault surface.
//
// Generates randomized scenarios (geometry, workload, a schedule
// optimizer drawn per seed — delta, ksy, or bit-reversal — and a
// composition of loss/corruption/doze/crash/stall/jitter/version-bump
// schedules),
// runs each to completion under a liveness horizon, and checks global
// invariants: no hang, every request serviced with balanced books,
// response accounting matching the request count, and — periodically —
// byte-identical population reports re-run single-sharded (the engine's
// shard-count invariance under full fault composition).
// Any violation reproduces from one integer.
//
//   bcastchaos --seeds 500                 # the CI smoke sweep
//   bcastchaos --chaos_seed 123 --replay   # re-run one seed, verbosely
//   bcastchaos --chaos_seed 123 --min      # shrink a failing scenario
//
// Exit code: 0 when every scenario passed, 1 on any violation, 2 on
// usage errors. On violation the failing seed's report and timeline are
// written next to --artifact_dir and the one-line repro is printed.

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "core/simulator.h"
#include "obs/timeline.h"

namespace bcast {
namespace {

// Re-runs a failing scenario with a timeline attached and writes the
// report + trace artifacts CI uploads. Best-effort: artifact failures
// are reported but never mask the violation itself.
void WriteArtifacts(const chaos::ChaosScenario& scenario,
                    const std::string& dir) {
  const std::string stem =
      dir + "/chaos_fail_" + std::to_string(scenario.chaos_seed);
  Result<std::unique_ptr<obs::TimelineWriter>> timeline =
      obs::TimelineWriter::Open(stem + ".timeline.json");
  // Population scenarios re-run through the engine so the artifact
  // shows the run that actually failed (per-shard timeline tracks
  // included); single-client scenarios re-run the plain simulator.
  chaos::ChaosOutcome rerun = chaos::RunScenario(
      scenario, nullptr, timeline.ok() ? timeline->get() : nullptr);
  if (rerun.completed) {
    Status st = rerun.report.WriteToFile(stem + ".report.json");
    if (!st.ok()) {
      std::cerr << "artifact write failed: " << st.ToString() << "\n";
    }
  }
  std::cerr << "artifacts: " << stem << ".report.json, " << stem
            << ".timeline.json\n";
}

void PrintViolations(const chaos::ChaosOutcome& outcome, uint64_t seed) {
  for (const chaos::ChaosViolation& v : outcome.violations) {
    std::cerr << "FAIL seed " << seed << " [" << v.invariant
              << "]: " << v.detail << "\n";
  }
  std::cerr << "repro: " << chaos::ReproCommand(seed) << "\n";
}

int Run(int argc, char** argv) {
  uint64_t seeds = 500;
  uint64_t start_seed = 0;
  uint64_t chaos_seed = 0;
  uint64_t shard_identity_every = 8;
  bool replay = false;
  bool minimize = false;
  std::string artifact_dir = ".";

  FlagSet flags("bcastchaos");
  flags.AddUint64("seeds", &seeds, "scenarios to run (seed range)");
  flags.AddUint64("start_seed", &start_seed, "first chaos seed");
  flags.AddUint64("chaos_seed", &chaos_seed,
                  "run exactly this seed (with --replay or --min)");
  flags.AddUint64("shard_identity_every", &shard_identity_every,
                  "every Nth population seed also re-runs single-sharded "
                  "and requires a bit-identical report (0 = never)");
  flags.AddBool("replay", &replay, "re-run one seed and print its report");
  flags.AddBool("min", &minimize,
                "shrink a failing seed by disabling axes one at a time");
  flags.AddString("artifact_dir", &artifact_dir,
                  "where failing-seed report/timeline artifacts go");
  Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }

  if (replay || minimize) {
    const chaos::ChaosScenario scenario =
        chaos::GenerateScenario(chaos_seed, chaos::ChaosAxes::All());
    chaos::ChaosOutcome outcome = chaos::RunScenario(scenario);
    std::cout << "seed " << chaos_seed << " axes "
              << scenario.axes.ToString() << " config "
              << scenario.params.ToString() << "\n";
    if (outcome.ok()) {
      std::cout << "ok: every invariant held\n";
      if (minimize) {
        std::cout << "nothing to minimize (seed passes)\n";
      }
      return 0;
    }
    PrintViolations(outcome, chaos_seed);
    WriteArtifacts(scenario, artifact_dir);
    if (minimize) {
      const chaos::ChaosAxes minimal =
          chaos::MinimizeAxes(chaos_seed, scenario.axes);
      std::cout << "minimal failing axes: " << minimal.ToString() << "\n";
    }
    return 1;
  }

  uint64_t failures = 0;
  for (uint64_t s = start_seed; s < start_seed + seeds; ++s) {
    const chaos::ChaosScenario scenario =
        chaos::GenerateScenario(s, chaos::ChaosAxes::All());
    chaos::ChaosOutcome outcome = chaos::RunScenario(scenario);
    if (!outcome.ok()) {
      ++failures;
      PrintViolations(outcome, s);
      WriteArtifacts(scenario, artifact_dir);
      continue;
    }
    if (shard_identity_every > 0 &&
        (s - start_seed) % shard_identity_every == 0) {
      if (auto v = chaos::CheckShardIdentity(scenario)) {
        ++failures;
        std::cerr << "FAIL seed " << s << " [" << v->invariant
                  << "]: " << v->detail << "\n";
        std::cerr << "repro: " << chaos::ReproCommand(s) << "\n";
      }
    }
  }
  std::cout << "bcastchaos: " << (seeds - failures) << "/" << seeds
            << " scenarios clean (seeds " << start_seed << ".."
            << (start_seed + seeds - 1) << ")\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bcast

int main(int argc, char** argv) { return bcast::Run(argc, argv); }
