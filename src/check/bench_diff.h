/// \file bench_diff.h
/// \brief Microbenchmark regression tracking: load google-benchmark JSON
/// output (`--benchmark_out=<file> --benchmark_out_format=json`) and diff
/// two runs with the same per-metric machinery the golden-baseline gate
/// uses.
///
/// Wall-clock comparisons are only meaningful between runs on the same
/// machine, so the default posture mirrors `ToleranceOptions
/// ::check_throughput`: time deltas can be recorded informationally (CI
/// uploads the diff artifact without gating on a noisy shared runner) or
/// enforced with a relative tolerance (a perf-lab box tracking its own
/// history).

#ifndef BCAST_CHECK_BENCH_DIFF_H_
#define BCAST_CHECK_BENCH_DIFF_H_

#include <string>
#include <vector>

#include "check/baseline.h"
#include "common/status.h"

namespace bcast::check {

/// \brief One benchmark measurement from a google-benchmark JSON file.
struct BenchEntry {
  /// Full benchmark name, including argument suffixes ("BM_Foo/64").
  std::string name;

  /// Measured real and CPU time per iteration, in `time_unit`.
  double real_time = 0.0;
  double cpu_time = 0.0;

  /// Unit the times are expressed in ("ns", "us", "ms", "s").
  std::string time_unit;

  /// Iterations the measurement averaged over.
  uint64_t iterations = 0;
};

/// \brief One parsed benchmark run.
struct BenchRun {
  /// Entries in file order; aggregate rows (mean/median/stddev emitted
  /// under --benchmark_repetitions) are excluded.
  std::vector<BenchEntry> entries;
};

/// \brief Parses google-benchmark JSON text into a run. Aggregate rows
/// are skipped; an input without a "benchmarks" array is an error.
Result<BenchRun> ParseBenchJson(const std::string& text);

/// \brief Reads and parses a google-benchmark JSON file.
Result<BenchRun> LoadBenchJson(const std::string& path);

/// \brief Comparison knobs for `CompareBenchRuns`.
struct BenchToleranceOptions {
  /// Relative tolerance on per-iteration time, applied to CPU time and
  /// real time alike (`<name>.cpu_ns` and `<name>.real_ns` diff entries).
  double time = 0.10;

  /// When false, time deltas are recorded in the diff but never fail it
  /// (cross-machine comparisons).
  bool check_time = true;

  /// When true, only slowdowns beyond `time` fail; speedups of any size
  /// are recorded but pass. A perf gate (e.g. CI comparing a PR's heap
  /// path against its merge base on the same runner) wants this; a
  /// baseline-freshness check wants the symmetric default, where an
  /// improvement also prompts a baseline update.
  bool regressions_only = false;
};

/// \brief Diffs \p actual against \p baseline benchmark-by-benchmark
/// (matched on full name), on both clocks. A benchmark present in the baseline but
/// missing from the candidate is a structural mismatch — a renamed or
/// deleted benchmark must be an explicit baseline update, never a silent
/// pass. New benchmarks in the candidate are recorded informationally.
BaselineDiff CompareBenchRuns(const BenchRun& baseline,
                              const BenchRun& actual,
                              const BenchToleranceOptions& options = {});

}  // namespace bcast::check

#endif  // BCAST_CHECK_BENCH_DIFF_H_
