// bcastcheck — the regression gate: independently re-verifies paper
// invariants and diffs run reports against golden baselines.
//
// Three check surfaces, combinable in one invocation; the exit code is 0
// only when every requested check passes (1 = checks failed, 2 = usage or
// I/O error):
//
//   bcastcheck --report build/report.json
//       internal consistency of a JSON run report (percentile ordering,
//       request accounting, non-negative throughput).
//
//   bcastcheck --report build/report.json --baseline tests/baselines/
//       additionally diff the report against the matching golden baseline
//       (matched by tool/mode/config/optimizer/seed) with per-metric
//       tolerances: exact for counts and integral extras,
//       --perf_tolerance for percentiles and the other extras,
//       --throughput_tolerance for slots/sec. Baselines recorded on a
//       different machine: add --skip_throughput. --diff_out writes the
//       full diff as JSON (the CI artifact).
//
//   bcastcheck --program prog.txt [--disks 500,2000,2500 --delta 2]
//       structural invariants of a serialized broadcast program (fixed
//       inter-arrival spacing, service mix); with a layout given, also
//       the Section-2.2 period identity and per-disk frequencies. The
//       layout checks assume the Δ-rule's chunked structure — check
//       bit-reversal (--optimizer=rbo) programs without --disks, since
//       their dyadic slot layout keeps fixed inter-arrival but not the
//       chunk-interleaved period identity.
//
//   bcastcheck --paper
//       simulation-backed checks of the paper's quantitative claims
//       (DES vs analytic model agreement, Bus Stop Paradox ordering,
//       Figure-10 P >= PIX ordering).
//
//   bcastcheck --fault_sweep r0.json,r1.json,...
//       degradation invariants across a loss sweep of run reports: mean
//       response monotone and bounded in the combined failure rate,
//       delivery ratio tracking 1 - rate. Reports without fault extras
//       anchor the sweep as lossless points.
//
//   bcastcheck --pull_sweep r0.json,r1.json,...
//       hybrid push-pull invariants across a pull-capacity sweep at fixed
//       total bandwidth: cold-page mean response non-increasing in pull
//       slots, zero-capacity points serviced nothing, uplink accounting
//       adds up. Reports without pull extras anchor the sweep as pure
//       push points.
//
//   bcastcheck --adapt_sweep static.json,adaptive.json,...
//       adaptive-control invariants across static-vs-adaptive runs of
//       the same workload: pinned cold-class mean response strictly
//       improves on the best static anchor, static anchors show an inert
//       controller, the slot controller converges (bounded late-epoch
//       oscillation within configured bounds). Reports without adapt
//       extras anchor the comparison as static points.
//
//   bcastcheck --bench new.json --bench_baseline old.json
//       diff two google-benchmark JSON files (--benchmark_out format) on
//       both cpu_time and real_time; time regressions beyond
//       --bench_tolerance fail unless
//       --bench_informational records them without gating.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "broadcast/serialize.h"
#include "check/baseline.h"
#include "check/bench_diff.h"
#include "check/invariants.h"
#include "check/paper_checks.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/report_reader.h"

namespace bcast {
namespace {

int Run(int argc, const char* const* argv) {
  std::string report_path;
  std::string baseline_path;
  std::string program_path;
  std::string disks;
  std::string freqs;
  uint64_t delta = 2;
  bool allow_irregular = false;
  bool paper = false;
  uint64_t paper_requests = 20000;
  uint64_t paper_seed = 42;
  double perf_tolerance = 0.03;
  double throughput_tolerance = 0.03;
  bool skip_throughput = false;
  std::string diff_out;
  std::string fault_sweep;
  double fault_slack = 0.05;
  std::string pull_sweep;
  double pull_slack = 0.05;
  std::string adapt_sweep;
  double adapt_slack = 0.0;
  bool adapt_require_grow = false;
  std::string bench_path;
  std::string bench_baseline_path;
  double bench_tolerance = 0.10;
  bool bench_informational = false;
  bool bench_regressions_only = false;
  std::string log_level;

  FlagSet flags("bcastcheck");
  flags.AddString("report", &report_path, "JSON run report to verify");
  flags.AddString("baseline", &baseline_path,
                  "golden report file, or directory to search");
  flags.AddString("program", &program_path,
                  "serialized broadcast program to verify");
  flags.AddString("disks", &disks,
                  "expected layout: comma-separated pages per disk");
  flags.AddString("freqs", &freqs,
                  "expected relative frequencies (overrides --delta)");
  flags.AddUint64("delta", &delta, "expected layout: Delta rule parameter");
  flags.AddBool("allow_irregular", &allow_irregular,
                "skip fixed-inter-arrival checks (skewed/random programs)");
  flags.AddBool("paper", &paper,
                "run the simulation-backed paper-claim checks");
  flags.AddUint64("paper_requests", &paper_requests,
                  "measured requests per paper-check simulation");
  flags.AddUint64("paper_seed", &paper_seed,
                  "master seed for the paper-check simulations");
  flags.AddDouble("perf_tolerance", &perf_tolerance,
                  "relative tolerance for response/tuning metrics");
  flags.AddDouble("throughput_tolerance", &throughput_tolerance,
                  "relative tolerance for slots/events per second");
  flags.AddBool("skip_throughput", &skip_throughput,
                "record but never fail wall-clock throughput metrics");
  flags.AddString("diff_out", &diff_out,
                  "write the baseline diff as JSON to this path");
  flags.AddString("fault_sweep", &fault_sweep,
                  "comma-separated run reports forming a loss sweep");
  flags.AddDouble("fault_slack", &fault_slack,
                  "relative slack for the fault-sweep invariants");
  flags.AddString("pull_sweep", &pull_sweep,
                  "comma-separated run reports forming a pull-capacity "
                  "sweep");
  flags.AddDouble("pull_slack", &pull_slack,
                  "relative slack for the pull-sweep invariants");
  flags.AddString("adapt_sweep", &adapt_sweep,
                  "comma-separated run reports forming a static-vs-"
                  "adaptive comparison");
  flags.AddDouble("adapt_slack", &adapt_slack,
                  "relative margin the adaptive cold-class latency must "
                  "beat the static anchor by");
  flags.AddBool("adapt_require_grow", &adapt_require_grow,
                "--adapt_sweep: additionally require an adaptive point "
                "whose pull-slot split grew (backlog scenarios)");
  flags.AddString("bench", &bench_path,
                  "google-benchmark JSON file to diff");
  flags.AddString("bench_baseline", &bench_baseline_path,
                  "google-benchmark JSON file to diff --bench against");
  flags.AddDouble("bench_tolerance", &bench_tolerance,
                  "relative tolerance for per-iteration CPU time");
  flags.AddBool("bench_informational", &bench_informational,
                "record bench time deltas without failing on them");
  flags.AddBool("bench_regressions_only", &bench_regressions_only,
                "fail only on slowdowns beyond --bench_tolerance; "
                "speedups of any size pass (perf-gate posture)");
  flags.AddString("log_level", &log_level,
                  "log threshold: debug|info|warn|error|fatal");

  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n\n" << flags.HelpText();
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }
  if (!log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level, &level)) {
      BCAST_LOG(kError) << "unknown --log_level: " << log_level
                        << " (debug|info|warn|error|fatal)";
      return 2;
    }
    SetLogThreshold(level);
  }
  if (report_path.empty() && program_path.empty() && !paper &&
      fault_sweep.empty() && pull_sweep.empty() && adapt_sweep.empty() &&
      bench_path.empty()) {
    BCAST_LOG(kError) << "nothing to check: give --report, --program, "
                         "--fault_sweep, --pull_sweep, --adapt_sweep, "
                         "--bench, and/or --paper";
    std::cerr << flags.HelpText();
    return 2;
  }
  if (baseline_path.empty() && bench_path.empty() && !diff_out.empty()) {
    BCAST_LOG(kError) << "--diff_out requires --baseline or --bench";
    return 2;
  }
  if (bench_path.empty() != bench_baseline_path.empty()) {
    BCAST_LOG(kError)
        << "--bench and --bench_baseline must be given together";
    return 2;
  }

  check::CheckList all;

  if (!report_path.empty()) {
    Result<obs::RunReport> report = obs::ReadRunReportFile(report_path);
    if (!report.ok()) {
      BCAST_LOG(kError) << "--report: " << report.status().ToString();
      return 2;
    }
    BCAST_LOG(kInfo) << "checking report invariants: " << report_path;
    all.Extend(check::CheckReportInvariants(*report));

    if (!baseline_path.empty()) {
      std::string baseline_file = baseline_path;
      std::error_code ec;
      if (std::filesystem::is_directory(baseline_path, ec)) {
        Result<std::string> found =
            check::FindBaselineFile(*report, baseline_path);
        if (!found.ok()) {
          BCAST_LOG(kError) << "--baseline: "
                            << found.status().ToString();
          return 1;  // a missing baseline IS a gate failure
        }
        baseline_file = *found;
      }
      Result<obs::RunReport> baseline =
          obs::ReadRunReportFile(baseline_file);
      if (!baseline.ok()) {
        BCAST_LOG(kError) << "--baseline: "
                          << baseline.status().ToString();
        return 2;
      }
      check::ToleranceOptions tolerances;
      tolerances.perf = perf_tolerance;
      tolerances.throughput = throughput_tolerance;
      tolerances.check_throughput = !skip_throughput;
      const check::BaselineDiff diff =
          check::CompareReports(*baseline, *report, tolerances);
      std::cout << "Baseline: " << baseline_file << "\n";
      check::PrintDiff(diff, std::cout);
      if (!diff_out.empty()) {
        std::ofstream out(diff_out);
        if (!out) {
          BCAST_LOG(kError) << "--diff_out: cannot open " << diff_out;
          return 2;
        }
        check::WriteDiffJson(diff, out);
      }
      all.Add("baseline." + std::filesystem::path(baseline_file)
                                .filename()
                                .string(),
              diff.ok(),
              std::to_string(diff.failures()) + " metric(s) out of "
                                                "tolerance");
    }
  } else if (!baseline_path.empty()) {
    BCAST_LOG(kError) << "--baseline requires --report";
    return 2;
  }

  if (!program_path.empty()) {
    std::ifstream in(program_path);
    if (!in) {
      BCAST_LOG(kError) << "--program: cannot open " << program_path;
      return 2;
    }
    Result<BroadcastProgram> program = LoadProgram(&in);
    if (!program.ok()) {
      BCAST_LOG(kError) << "--program: " << program.status().ToString();
      return 2;
    }
    BCAST_LOG(kInfo) << "checking program invariants: " << program_path;
    all.Extend(check::CheckProgramInvariants(*program, !allow_irregular));

    if (!disks.empty()) {
      Result<std::vector<uint64_t>> sizes = ParseUint64List(disks);
      if (!sizes.ok()) {
        BCAST_LOG(kError) << "--disks: " << sizes.status().ToString();
        return 2;
      }
      Result<DiskLayout> layout = [&]() -> Result<DiskLayout> {
        if (freqs.empty()) return MakeDeltaLayout(*sizes, delta);
        Result<std::vector<uint64_t>> f = ParseUint64List(freqs);
        if (!f.ok()) return f.status();
        return MakeLayout(*sizes, *f);
      }();
      if (!layout.ok()) {
        BCAST_LOG(kError) << layout.status().ToString();
        return 2;
      }
      all.Extend(check::CheckLayoutProgramAgreement(*layout, *program));
    }
  }

  if (!fault_sweep.empty()) {
    std::vector<check::FaultSweepPoint> points;
    for (const std::string& path : Split(fault_sweep, ',')) {
      Result<obs::RunReport> report = obs::ReadRunReportFile(path);
      if (!report.ok()) {
        BCAST_LOG(kError) << "--fault_sweep: "
                          << report.status().ToString();
        return 2;
      }
      // Every sweep member must itself be a sane report before its
      // numbers feed the degradation invariants.
      all.Extend(check::CheckReportInvariants(*report));
      points.push_back(check::FaultSweepPointFromReport(*report));
    }
    all.Extend(check::CheckFaultDegradation(std::move(points), fault_slack));
  }

  if (!pull_sweep.empty()) {
    std::vector<check::PullSweepPoint> points;
    for (const std::string& path : Split(pull_sweep, ',')) {
      Result<obs::RunReport> report = obs::ReadRunReportFile(path);
      if (!report.ok()) {
        BCAST_LOG(kError) << "--pull_sweep: "
                          << report.status().ToString();
        return 2;
      }
      // Every sweep member must itself be a sane report before its
      // numbers feed the improvement invariants.
      all.Extend(check::CheckReportInvariants(*report));
      points.push_back(check::PullSweepPointFromReport(*report));
    }
    all.Extend(check::CheckPullImprovement(std::move(points), pull_slack));
  }

  if (!adapt_sweep.empty()) {
    std::vector<check::AdaptSweepPoint> points;
    for (const std::string& path : Split(adapt_sweep, ',')) {
      Result<obs::RunReport> report = obs::ReadRunReportFile(path);
      if (!report.ok()) {
        BCAST_LOG(kError) << "--adapt_sweep: "
                          << report.status().ToString();
        return 2;
      }
      // Every comparison member must itself be a sane report before its
      // numbers feed the improvement invariants.
      all.Extend(check::CheckReportInvariants(*report));
      points.push_back(check::AdaptSweepPointFromReport(*report));
    }
    all.Extend(check::CheckAdaptImprovement(std::move(points), adapt_slack,
                                            adapt_require_grow));
  }

  if (!bench_path.empty()) {
    Result<check::BenchRun> bench = check::LoadBenchJson(bench_path);
    if (!bench.ok()) {
      BCAST_LOG(kError) << "--bench: " << bench.status().ToString();
      return 2;
    }
    Result<check::BenchRun> bench_baseline =
        check::LoadBenchJson(bench_baseline_path);
    if (!bench_baseline.ok()) {
      BCAST_LOG(kError) << "--bench_baseline: "
                        << bench_baseline.status().ToString();
      return 2;
    }
    check::BenchToleranceOptions bench_options;
    bench_options.time = bench_tolerance;
    bench_options.check_time = !bench_informational;
    bench_options.regressions_only = bench_regressions_only;
    const check::BaselineDiff diff =
        check::CompareBenchRuns(*bench_baseline, *bench, bench_options);
    std::cout << "Bench baseline: " << bench_baseline_path << "\n";
    check::PrintDiff(diff, std::cout);
    if (!diff_out.empty() && baseline_path.empty()) {
      std::ofstream out(diff_out);
      if (!out) {
        BCAST_LOG(kError) << "--diff_out: cannot open " << diff_out;
        return 2;
      }
      check::WriteDiffJson(diff, out);
    }
    all.Add("bench." +
                std::filesystem::path(bench_path).filename().string(),
            diff.ok(),
            std::to_string(diff.failures()) +
                " benchmark(s) out of tolerance");
  }

  if (paper) {
    BCAST_LOG(kInfo) << "running simulation-backed paper checks ("
                     << paper_requests << " requests, seed " << paper_seed
                     << ")";
    check::PaperCheckOptions options;
    options.requests = paper_requests;
    options.seed = paper_seed;
    Result<check::CheckList> checks = check::RunPaperChecks(options);
    if (!checks.ok()) {
      BCAST_LOG(kError) << "--paper: " << checks.status().ToString();
      return 2;
    }
    all.Extend(*checks);
  }

  all.Print(std::cout);
  if (!all.all_ok()) {
    std::cout << all.failures() << " of " << all.checks().size()
              << " checks failed\n";
    return 1;
  }
  std::cout << "all " << all.checks().size() << " checks passed\n";
  return 0;
}

}  // namespace
}  // namespace bcast

int main(int argc, char** argv) { return bcast::Run(argc, argv); }
