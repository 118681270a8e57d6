#include "check/bench_diff.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "obs/json_reader.h"

namespace bcast::check {
namespace {

// Scale factors to nanoseconds, so runs recorded in different units
// still compare (google-benchmark units are per-benchmark).
double UnitToNanos(const std::string& unit) {
  if (unit == "ns" || unit.empty()) return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;  // unknown unit: compare raw values
}

// Both clocks are gated: google-benchmark's `cpu_time` counts only the
// calling thread unless a benchmark measures process CPU time, so work
// on other threads can slow a benchmark down in `real_time` alone.
constexpr std::pair<const char*, double BenchEntry::*> kClocks[] = {
    {".cpu_ns", &BenchEntry::cpu_time},
    {".real_ns", &BenchEntry::real_time},
};

}  // namespace

Result<BenchRun> ParseBenchJson(const std::string& text) {
  Result<obs::JsonValue> doc = obs::JsonValue::Parse(text);
  if (!doc.ok()) return doc.status();
  const obs::JsonValue* benchmarks = doc->Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return Status::InvalidArgument(
        "not a google-benchmark JSON file: no \"benchmarks\" array");
  }
  BenchRun run;
  for (const obs::JsonValue& item : benchmarks->items()) {
    if (!item.is_object()) continue;
    // Repetition aggregates (mean/median/stddev rows) carry a
    // "run_type" of "aggregate"; plain runs say "iteration" (or, in
    // older versions, omit the field).
    if (const obs::JsonValue* run_type = item.Find("run_type")) {
      Result<std::string> kind = run_type->AsString();
      if (kind.ok() && *kind != "iteration") continue;
    }
    BenchEntry entry;
    const obs::JsonValue* name = item.Find("name");
    if (name == nullptr) continue;
    Result<std::string> name_str = name->AsString();
    if (!name_str.ok()) continue;
    entry.name = *name_str;
    if (const obs::JsonValue* v = item.Find("real_time")) {
      Result<double> num = v->AsNumber();
      if (num.ok()) entry.real_time = *num;
    }
    if (const obs::JsonValue* v = item.Find("cpu_time")) {
      Result<double> num = v->AsNumber();
      if (num.ok()) entry.cpu_time = *num;
    }
    if (const obs::JsonValue* v = item.Find("time_unit")) {
      Result<std::string> unit = v->AsString();
      if (unit.ok()) entry.time_unit = *unit;
    }
    if (const obs::JsonValue* v = item.Find("iterations")) {
      Result<uint64_t> n = v->AsUint64();
      if (n.ok()) entry.iterations = *n;
    }
    run.entries.push_back(std::move(entry));
  }
  return run;
}

Result<BenchRun> LoadBenchJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open benchmark file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseBenchJson(buffer.str());
}

BaselineDiff CompareBenchRuns(const BenchRun& baseline,
                              const BenchRun& actual,
                              const BenchToleranceOptions& options) {
  BaselineDiff diff;
  std::unordered_map<std::string, const BenchEntry*> candidates;
  for (const BenchEntry& entry : actual.entries) {
    candidates[entry.name] = &entry;
  }
  std::unordered_map<std::string, bool> matched;
  for (const BenchEntry& base : baseline.entries) {
    auto it = candidates.find(base.name);
    if (it == candidates.end()) {
      diff.structural_mismatches.push_back(
          "benchmark '" + base.name +
          "' present in baseline, missing from candidate");
      continue;
    }
    matched[base.name] = true;
    const BenchEntry& act = *it->second;
    for (const auto& [clock, time] : kClocks) {
      const double base_ns = base.*time * UnitToNanos(base.time_unit);
      const double act_ns = act.*time * UnitToNanos(act.time_unit);
      DiffEntry entry;
      entry.metric = base.name + clock;
      entry.baseline = base_ns;
      entry.actual = act_ns;
      entry.tolerance = options.time;
      const double denom = std::max(std::fabs(base_ns), 1e-12);
      entry.relative_delta = std::fabs(act_ns - base_ns) / denom;
      const bool improvement = act_ns <= base_ns;
      entry.informational =
          !options.check_time || (options.regressions_only && improvement);
      entry.ok =
          entry.informational || entry.relative_delta <= options.time;
      diff.entries.push_back(std::move(entry));
    }
  }
  for (const BenchEntry& act : actual.entries) {
    if (matched.count(act.name)) continue;
    // New benchmark: informational, never a failure — adding coverage
    // must not require touching the baseline first.
    for (const auto& [clock, time] : kClocks) {
      DiffEntry entry;
      entry.metric = act.name + clock + " (new)";
      entry.baseline = 0.0;
      entry.actual = act.*time * UnitToNanos(act.time_unit);
      entry.informational = true;
      entry.ok = true;
      diff.entries.push_back(std::move(entry));
    }
  }
  return diff;
}

}  // namespace bcast::check
