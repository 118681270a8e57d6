#include "check/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/table.h"
#include "obs/json_util.h"
#include "obs/report_reader.h"

namespace bcast::check {
namespace {

// Comparator for one diff: accumulates entries with the right tolerance
// class applied.
class Differ {
 public:
  explicit Differ(BaselineDiff* diff) : diff_(diff) {}

  void Exact(const std::string& metric, double baseline, double actual) {
    Push(metric, baseline, actual, 0.0, baseline == actual, false);
  }

  void Relative(const std::string& metric, double baseline, double actual,
                double tolerance, bool informational = false) {
    // An all-zero metric (e.g. tuning in a mode that never records it)
    // must not divide by zero; both-zero always passes.
    const double denom = std::max(std::fabs(baseline), 1e-12);
    const double delta = std::fabs(actual - baseline) / denom;
    const bool ok = baseline == actual || delta <= tolerance;
    Push(metric, baseline, actual, tolerance, ok, informational);
  }

 private:
  void Push(const std::string& metric, double baseline, double actual,
            double tolerance, bool ok, bool informational) {
    DiffEntry entry;
    entry.metric = metric;
    entry.baseline = baseline;
    entry.actual = actual;
    entry.tolerance = tolerance;
    const double denom = std::max(std::fabs(baseline), 1e-12);
    entry.relative_delta = std::fabs(actual - baseline) / denom;
    entry.informational = informational;
    entry.ok = informational || ok;
    diff_->entries.push_back(std::move(entry));
  }

  BaselineDiff* diff_;
};

void CompareSummaries(Differ* differ, const std::string& prefix,
                      const obs::HistogramSummary& baseline,
                      const obs::HistogramSummary& actual,
                      const ToleranceOptions& options) {
  differ->Exact(prefix + ".count", static_cast<double>(baseline.count),
                static_cast<double>(actual.count));
  differ->Relative(prefix + ".mean", baseline.mean, actual.mean,
                   options.perf);
  differ->Relative(prefix + ".p50", baseline.p50, actual.p50, options.perf);
  differ->Relative(prefix + ".p90", baseline.p90, actual.p90, options.perf);
  differ->Relative(prefix + ".p99", baseline.p99, actual.p99, options.perf);
  differ->Relative(prefix + ".max", baseline.max, actual.max, options.perf);
}

std::string FormatValue(double v) {
  // Counts print as integers, measured values with enough digits to see
  // a 0.1% drift.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

bool BaselineDiff::ok() const {
  return structural_mismatches.empty() &&
         std::all_of(entries.begin(), entries.end(),
                     [](const DiffEntry& e) { return e.ok; });
}

size_t BaselineDiff::failures() const {
  return structural_mismatches.size() +
         static_cast<size_t>(
             std::count_if(entries.begin(), entries.end(),
                           [](const DiffEntry& e) { return !e.ok; }));
}

BaselineDiff CompareReports(const obs::RunReport& baseline,
                            const obs::RunReport& actual,
                            const ToleranceOptions& options) {
  BaselineDiff diff;
  auto require_identity = [&diff](const std::string& what,
                                  const std::string& base,
                                  const std::string& act) {
    if (base != act) {
      diff.structural_mismatches.push_back(
          what + " differs: baseline '" + base + "' vs actual '" + act +
          "'");
    }
  };
  require_identity("tool", baseline.tool, actual.tool);
  require_identity("mode", baseline.mode, actual.mode);
  require_identity("config", baseline.config, actual.config);
  require_identity("optimizer", baseline.optimizer, actual.optimizer);
  require_identity("seed", std::to_string(baseline.seed),
                   std::to_string(actual.seed));
  require_identity("seeds", std::to_string(baseline.seeds),
                   std::to_string(actual.seeds));
  if (baseline.served_per_disk.size() != actual.served_per_disk.size()) {
    diff.structural_mismatches.push_back(
        "served_per_disk length differs: " +
        std::to_string(baseline.served_per_disk.size()) + " vs " +
        std::to_string(actual.served_per_disk.size()));
  }
  if (!diff.structural_mismatches.empty()) return diff;

  Differ differ(&diff);
  differ.Exact("program.period", static_cast<double>(baseline.period),
               static_cast<double>(actual.period));
  differ.Exact("program.empty_slots",
               static_cast<double>(baseline.empty_slots),
               static_cast<double>(actual.empty_slots));
  differ.Exact("program.perturbed_pages",
               static_cast<double>(baseline.perturbed_pages),
               static_cast<double>(actual.perturbed_pages));
  differ.Exact("requests.measured", static_cast<double>(baseline.requests),
               static_cast<double>(actual.requests));
  differ.Exact("requests.warmup",
               static_cast<double>(baseline.warmup_requests),
               static_cast<double>(actual.warmup_requests));
  differ.Exact("requests.cache_hits",
               static_cast<double>(baseline.cache_hits),
               static_cast<double>(actual.cache_hits));
  for (size_t d = 0; d < baseline.served_per_disk.size(); ++d) {
    differ.Exact("served_per_disk[" + std::to_string(d) + "]",
                 static_cast<double>(baseline.served_per_disk[d]),
                 static_cast<double>(actual.served_per_disk[d]));
  }
  differ.Relative("requests.hit_rate", baseline.hit_rate(),
                  actual.hit_rate(), options.perf);
  CompareSummaries(&differ, "response", baseline.response, actual.response,
                   options);
  CompareSummaries(&differ, "tuning", baseline.tuning, actual.tuning,
                   options);
  differ.Relative("end_time", baseline.end_time, actual.end_time,
                  options.perf);
  differ.Exact("events_dispatched",
               static_cast<double>(baseline.events_dispatched),
               static_cast<double>(actual.events_dispatched));
  differ.Relative("throughput.slots_per_second",
                  baseline.slots_per_second, actual.slots_per_second,
                  options.throughput, !options.check_throughput);
  differ.Relative("throughput.events_per_second",
                  baseline.events_per_second, actual.events_per_second,
                  options.throughput, !options.check_throughput);
  // Extras: a key on one side only is a report of another shape.
  // Integral values (counts, knobs) are held exact, the others within
  // `perf`; the DES profile's `*_cpu_ns` wall clock is held like
  // throughput.
  const std::map<std::string, double> base(baseline.extra.begin(),
                                           baseline.extra.end());
  const std::map<std::string, double> act(actual.extra.begin(),
                                          actual.extra.end());
  for (const auto& [key, value] : act) {
    if (base.count(key) == 0) {
      diff.structural_mismatches.push_back("extra " + key +
                                           " not in baseline");
    }
  }
  for (const auto& [key, value] : baseline.extra) {
    const auto it = act.find(key);
    if (it == act.end()) {
      diff.structural_mismatches.push_back("extra " + key +
                                           " missing from actual");
    } else if (key.ends_with("_cpu_ns")) {
      differ.Relative("extra." + key, value, it->second, options.throughput,
                      !options.check_throughput);
    } else if (value == std::floor(value)) {
      differ.Exact("extra." + key, value, it->second);
    } else {
      differ.Relative("extra." + key, value, it->second, options.perf);
    }
  }
  return diff;
}

void PrintDiff(const BaselineDiff& diff, std::ostream& out) {
  for (const std::string& mismatch : diff.structural_mismatches) {
    out << "FAIL " << mismatch << "\n";
  }
  AsciiTable table({"", "Metric", "Baseline", "Actual", "RelDelta",
                    "Tolerance"});
  for (const DiffEntry& e : diff.entries) {
    const char* verdict = e.ok ? (e.informational ? "info" : "ok") : "FAIL";
    table.AddRow({verdict, e.metric, FormatValue(e.baseline),
                  FormatValue(e.actual), FormatValue(e.relative_delta),
                  e.tolerance == 0.0 ? "exact" : FormatValue(e.tolerance)});
  }
  table.Print(out);
  out << (diff.ok() ? "baseline comparison OK"
                    : "baseline comparison FAILED (" +
                          std::to_string(diff.failures()) + " failures)")
      << "\n";
}

void WriteDiffJson(const BaselineDiff& diff, std::ostream& out) {
  out << "{\n  \"ok\": " << (diff.ok() ? "true" : "false")
      << ",\n  \"failures\": " << diff.failures()
      << ",\n  \"structural_mismatches\": [";
  for (size_t i = 0; i < diff.structural_mismatches.size(); ++i) {
    if (i) out << ", ";
    obs::AppendJsonString(out, diff.structural_mismatches[i]);
  }
  out << "],\n  \"entries\": [";
  for (size_t i = 0; i < diff.entries.size(); ++i) {
    const DiffEntry& e = diff.entries[i];
    out << (i ? ",\n    " : "\n    ") << "{\"metric\": ";
    obs::AppendJsonString(out, e.metric);
    out << ", \"baseline\": ";
    obs::AppendJsonNumber(out, e.baseline);
    out << ", \"actual\": ";
    obs::AppendJsonNumber(out, e.actual);
    out << ", \"relative_delta\": ";
    obs::AppendJsonNumber(out, e.relative_delta);
    out << ", \"tolerance\": ";
    obs::AppendJsonNumber(out, e.tolerance);
    out << ", \"ok\": " << (e.ok ? "true" : "false")
        << ", \"informational\": " << (e.informational ? "true" : "false")
        << "}";
  }
  out << "\n  ]\n}\n";
}

Result<std::string> FindBaselineFile(const obs::RunReport& report,
                                     const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("cannot list baseline directory " + dir + ": " +
                            ec.message());
  }
  std::vector<std::string> candidates;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || entry.path().extension() != ".json") {
      continue;
    }
    candidates.push_back(entry.path().string());
  }
  // Deterministic search order regardless of directory enumeration order.
  std::sort(candidates.begin(), candidates.end());
  for (const std::string& path : candidates) {
    Result<obs::RunReport> candidate = obs::ReadRunReportFile(path);
    if (!candidate.ok()) continue;  // not a run report; skip
    if (candidate->tool == report.tool && candidate->mode == report.mode &&
        candidate->config == report.config &&
        candidate->optimizer == report.optimizer &&
        candidate->seed == report.seed &&
        candidate->seeds == report.seeds) {
      return path;
    }
  }
  return Status::NotFound(
      "no baseline in " + dir + " matches tool='" + report.tool +
      "' mode='" + report.mode + "' seed=" + std::to_string(report.seed) +
      " config='" + report.config + "'");
}

}  // namespace bcast::check
