// Microbenchmark diffing: parse google-benchmark JSON (skipping
// aggregate rows), tolerate small time drift on either clock, fail
// structural changes, and record new benchmarks informationally.

#include "check/bench_diff.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace bcast::check {
namespace {

// BM_Foo's real time defaults to its CPU time; pass \p foo_real_ns to
// move one clock without the other.
std::string BenchJson(double foo_ns, double bar_us, double foo_real_ns = -1) {
  std::ostringstream out;
  out << R"({
  "context": {"host_name": "ci", "num_cpus": 4},
  "benchmarks": [
    {"name": "BM_Foo/64", "run_type": "iteration", "iterations": 1000,
     "real_time": )"
      << (foo_real_ns < 0 ? foo_ns : foo_real_ns) << R"(, "cpu_time": )"
      << foo_ns
      << R"(, "time_unit": "ns"},
    {"name": "BM_Foo/64_mean", "run_type": "aggregate",
     "aggregate_name": "mean", "iterations": 3,
     "real_time": 1.0, "cpu_time": 1.0, "time_unit": "ns"},
    {"name": "BM_Bar", "run_type": "iteration", "iterations": 50,
     "real_time": )"
      << bar_us << R"(, "cpu_time": )" << bar_us
      << R"(, "time_unit": "us"}
  ]
})";
  return out.str();
}

const DiffEntry* FindEntry(const BaselineDiff& diff,
                           const std::string& metric) {
  for (const DiffEntry& e : diff.entries) {
    if (e.metric == metric) return &e;
  }
  return nullptr;
}

TEST(ParseBenchJsonTest, ParsesIterationRowsSkipsAggregates) {
  auto run = ParseBenchJson(BenchJson(120.0, 3.5));
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->entries.size(), 2u);  // the _mean aggregate is dropped
  EXPECT_EQ(run->entries[0].name, "BM_Foo/64");
  EXPECT_DOUBLE_EQ(run->entries[0].cpu_time, 120.0);
  EXPECT_EQ(run->entries[0].time_unit, "ns");
  EXPECT_EQ(run->entries[0].iterations, 1000u);
  EXPECT_EQ(run->entries[1].name, "BM_Bar");
  EXPECT_EQ(run->entries[1].time_unit, "us");
}

TEST(ParseBenchJsonTest, RejectsNonBenchmarkJson) {
  EXPECT_FALSE(ParseBenchJson(R"({"context": {}})").ok());
  EXPECT_FALSE(ParseBenchJson("not json at all").ok());
}

TEST(CompareBenchRunsTest, IdenticalRunsPass) {
  auto run = ParseBenchJson(BenchJson(120.0, 3.5));
  ASSERT_TRUE(run.ok());
  const BaselineDiff diff = CompareBenchRuns(*run, *run);
  EXPECT_TRUE(diff.ok());
  EXPECT_EQ(diff.failures(), 0u);
  EXPECT_TRUE(diff.structural_mismatches.empty());
}

TEST(CompareBenchRunsTest, DriftWithinTolerancePasses) {
  auto baseline = ParseBenchJson(BenchJson(100.0, 3.5));
  auto actual = ParseBenchJson(BenchJson(108.0, 3.5));  // +8% < 10%
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(actual.ok());
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual);
  EXPECT_TRUE(diff.ok());
}

TEST(CompareBenchRunsTest, DriftBeyondToleranceFails) {
  auto baseline = ParseBenchJson(BenchJson(100.0, 3.5));
  auto actual = ParseBenchJson(BenchJson(125.0, 3.5));  // +25% > 10%
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(actual.ok());
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual);
  EXPECT_FALSE(diff.ok());
  const DiffEntry* e = FindEntry(diff, "BM_Foo/64.cpu_ns");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->ok);
  EXPECT_NEAR(e->relative_delta, 0.25, 1e-9);
}

TEST(CompareBenchRunsTest, InformationalModeNeverFailsOnTime) {
  auto baseline = ParseBenchJson(BenchJson(100.0, 3.5));
  auto actual = ParseBenchJson(BenchJson(300.0, 3.5));  // 3x slower
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(actual.ok());
  BenchToleranceOptions options;
  options.check_time = false;
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual, options);
  EXPECT_TRUE(diff.ok());
  const DiffEntry* e = FindEntry(diff, "BM_Foo/64.cpu_ns");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->informational);
}

TEST(CompareBenchRunsTest, RegressionsOnlyPassesLargeSpeedups) {
  // A 4x speedup trips the symmetric check but passes the perf-gate
  // posture, where only slowdowns count.
  auto baseline = ParseBenchJson(BenchJson(400.0, 3.5));
  auto actual = ParseBenchJson(BenchJson(100.0, 3.5));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(actual.ok());
  EXPECT_FALSE(CompareBenchRuns(*baseline, *actual).ok());
  BenchToleranceOptions options;
  options.regressions_only = true;
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual, options);
  EXPECT_TRUE(diff.ok());
  const DiffEntry* e = FindEntry(diff, "BM_Foo/64.cpu_ns");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->informational);  // recorded, not gated
  EXPECT_NEAR(e->relative_delta, 0.75, 1e-9);
}

TEST(CompareBenchRunsTest, RegressionsOnlyStillFailsSlowdowns) {
  auto baseline = ParseBenchJson(BenchJson(100.0, 3.5));
  auto actual = ParseBenchJson(BenchJson(125.0, 3.5));  // +25% > 10%
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(actual.ok());
  BenchToleranceOptions options;
  options.regressions_only = true;
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual, options);
  EXPECT_FALSE(diff.ok());
  const DiffEntry* e = FindEntry(diff, "BM_Foo/64.cpu_ns");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->ok);
}

TEST(CompareBenchRunsTest, RealTimeOnlyRegressionFails) {
  // Work moved off the calling thread: its CPU clock holds still while
  // the wall clock slows down 50%.
  auto baseline = ParseBenchJson(BenchJson(100.0, 3.5, 100.0));
  auto actual = ParseBenchJson(BenchJson(100.0, 3.5, 150.0));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(actual.ok());
  BenchToleranceOptions options;
  options.regressions_only = true;
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual, options);
  EXPECT_FALSE(diff.ok());
  const DiffEntry* cpu = FindEntry(diff, "BM_Foo/64.cpu_ns");
  const DiffEntry* real = FindEntry(diff, "BM_Foo/64.real_ns");
  ASSERT_NE(cpu, nullptr);
  ASSERT_NE(real, nullptr);
  EXPECT_TRUE(cpu->ok);
  EXPECT_FALSE(real->ok);
  EXPECT_NEAR(real->relative_delta, 0.5, 1e-9);
  EXPECT_EQ(diff.failures(), 1u);
}

TEST(CompareBenchRunsTest, CpuTimeOnlyRegressionFails) {
  // The wall clock holds still while CPU time grows 30%.
  auto baseline = ParseBenchJson(BenchJson(100.0, 3.5, 200.0));
  auto actual = ParseBenchJson(BenchJson(130.0, 3.5, 200.0));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(actual.ok());
  BenchToleranceOptions options;
  options.regressions_only = true;
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual, options);
  EXPECT_FALSE(diff.ok());
  const DiffEntry* cpu = FindEntry(diff, "BM_Foo/64.cpu_ns");
  const DiffEntry* real = FindEntry(diff, "BM_Foo/64.real_ns");
  ASSERT_NE(cpu, nullptr);
  ASSERT_NE(real, nullptr);
  EXPECT_FALSE(cpu->ok);
  EXPECT_TRUE(real->ok);
  EXPECT_EQ(diff.failures(), 1u);
}

TEST(CompareBenchRunsTest, UnitsAreNormalizedBeforeComparing) {
  // 3.5 us in the baseline vs 3500 ns in the candidate: identical.
  auto baseline = ParseBenchJson(BenchJson(100.0, 3.5));
  ASSERT_TRUE(baseline.ok());
  auto actual = ParseBenchJson(R"({
    "benchmarks": [
      {"name": "BM_Foo/64", "run_type": "iteration", "iterations": 1000,
       "real_time": 100.0, "cpu_time": 100.0, "time_unit": "ns"},
      {"name": "BM_Bar", "run_type": "iteration", "iterations": 50,
       "real_time": 3500.0, "cpu_time": 3500.0, "time_unit": "ns"}
    ]})");
  ASSERT_TRUE(actual.ok());
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual);
  EXPECT_TRUE(diff.ok()) << "unit normalization should equate us and ns";
}

TEST(CompareBenchRunsTest, MissingBenchmarkIsStructural) {
  auto baseline = ParseBenchJson(BenchJson(100.0, 3.5));
  ASSERT_TRUE(baseline.ok());
  auto actual = ParseBenchJson(R"({
    "benchmarks": [
      {"name": "BM_Foo/64", "run_type": "iteration", "iterations": 1000,
       "real_time": 100.0, "cpu_time": 100.0, "time_unit": "ns"}
    ]})");
  ASSERT_TRUE(actual.ok());
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual);
  EXPECT_FALSE(diff.ok());
  ASSERT_EQ(diff.structural_mismatches.size(), 1u);
  EXPECT_NE(diff.structural_mismatches[0].find("BM_Bar"),
            std::string::npos);
}

TEST(CompareBenchRunsTest, NewBenchmarkIsInformationalOnly) {
  auto baseline = ParseBenchJson(R"({
    "benchmarks": [
      {"name": "BM_Foo/64", "run_type": "iteration", "iterations": 1000,
       "real_time": 100.0, "cpu_time": 100.0, "time_unit": "ns"}
    ]})");
  ASSERT_TRUE(baseline.ok());
  auto actual = ParseBenchJson(BenchJson(100.0, 3.5));
  ASSERT_TRUE(actual.ok());
  const BaselineDiff diff = CompareBenchRuns(*baseline, *actual);
  EXPECT_TRUE(diff.ok());
  for (const char* metric : {"BM_Bar.cpu_ns (new)", "BM_Bar.real_ns (new)"}) {
    const DiffEntry* e = FindEntry(diff, metric);
    ASSERT_NE(e, nullptr) << metric;
    EXPECT_TRUE(e->informational);
    EXPECT_TRUE(e->ok);
  }
}

}  // namespace
}  // namespace bcast::check
