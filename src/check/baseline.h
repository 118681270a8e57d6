/// \file baseline.h
/// \brief Golden-baseline comparison: diff a fresh run report against a
/// checked-in one with per-metric tolerances.
///
/// The regression gate's contract (ROADMAP): deterministic simulation
/// outputs — request/hit counts, program geometry, per-disk serves — must
/// match a golden report *exactly*; measured distributions (response and
/// tuning percentiles, means) within a relative tolerance (default 3%,
/// slack for histogram-bucket boundary effects); wall-clock throughput
/// (`slots_per_second`) within its own tolerance, comparable only between
/// runs on the same machine and therefore separately skippable. Extras
/// are gated too: the same keys on both sides, integral values exact,
/// the others within the distribution tolerance. Every
/// comparison is recorded as a `DiffEntry` so CI can upload the full diff
/// as an artifact whether or not the gate trips.

#ifndef BCAST_CHECK_BASELINE_H_
#define BCAST_CHECK_BASELINE_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/run_report.h"

namespace bcast::check {

/// \brief Per-metric-class tolerances for `CompareReports`.
struct ToleranceOptions {
  /// Relative tolerance for simulated distribution metrics (response and
  /// tuning mean/percentiles).
  double perf = 0.03;

  /// Relative tolerance for wall-clock throughput (slots/sec).
  double throughput = 0.03;

  /// When false, throughput metrics are recorded in the diff but never
  /// fail the gate — the right setting when baseline and candidate ran on
  /// different machines (e.g. checked-in goldens vs a CI runner).
  bool check_throughput = true;
};

/// \brief One compared metric. For exact metrics `tolerance` is 0.
struct DiffEntry {
  std::string metric;
  double baseline = 0.0;
  double actual = 0.0;
  /// Relative tolerance this metric was held to (0 = exact).
  double tolerance = 0.0;
  /// |actual - baseline| / max(|baseline|, epsilon).
  double relative_delta = 0.0;
  /// Whether the metric passed; informational entries are always true.
  bool ok = true;
  /// True when the metric was compared but cannot fail (throughput with
  /// check_throughput off).
  bool informational = false;
};

/// \brief The full comparison result.
struct BaselineDiff {
  std::vector<DiffEntry> entries;

  /// Non-metric mismatches (different config strings, disk-count
  /// mismatch, extra keys on one side only); any entry here fails the
  /// diff.
  std::vector<std::string> structural_mismatches;

  bool ok() const;
  size_t failures() const;
};

/// \brief Compares \p actual against \p baseline. Identity fields (tool,
/// mode, config, optimizer, seed, seeds) must match exactly — comparing
/// reports of different experiments is reported as a structural
/// mismatch, not a metric regression — and so must the set of extra
/// keys.
BaselineDiff CompareReports(const obs::RunReport& baseline,
                            const obs::RunReport& actual,
                            const ToleranceOptions& options = {});

/// \brief Renders the diff as an aligned human-readable table, failures
/// marked with "FAIL".
void PrintDiff(const BaselineDiff& diff, std::ostream& out);

/// \brief Serializes the diff as one JSON object (the CI artifact).
void WriteDiffJson(const BaselineDiff& diff, std::ostream& out);

/// \brief Finds the baseline report in directory \p dir (non-recursive,
/// `*.json`) whose tool/mode/config/optimizer/seed/seeds identity matches
/// \p report. NotFound when no file matches; parse failures of unrelated
/// files in the directory are skipped.
Result<std::string> FindBaselineFile(const obs::RunReport& report,
                                     const std::string& dir);

}  // namespace bcast::check

#endif  // BCAST_CHECK_BASELINE_H_
