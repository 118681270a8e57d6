#include "check/baseline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/report_reader.h"
#include "obs/run_report.h"

namespace bcast::check {
namespace {

obs::RunReport GoldenReport() {
  obs::RunReport report;
  report.tool = "bcastsim";
  report.mode = "single";
  report.config = "disks<500,2000,2500> delta=2 policy=LRU";
  report.seed = 42;
  report.seeds = 1;
  report.period = 11010;
  report.empty_slots = 10;
  report.requests = 20000;
  report.warmup_requests = 993;
  report.cache_hits = 14394;
  report.response = {20000, 424.0, 0.5, 3670.0, 100.0, 1844.0, 3584.0};
  report.tuning = {20000, 424.0, 0.5, 3670.0, 100.0, 1844.0, 3584.0};
  report.served_per_disk = {2938, 2668, 0};
  report.end_time = 9211919.0;
  report.events_dispatched = 27100;
  report.slots_per_second = 3.2e9;
  report.events_per_second = 9.4e6;
  report.extra = {{"stale_hits", 4811.0}, {"stale_fraction", 0.24055}};
  return report;
}

const DiffEntry* FindEntry(const BaselineDiff& diff,
                           const std::string& metric) {
  for (const DiffEntry& e : diff.entries) {
    if (e.metric == metric) return &e;
  }
  return nullptr;
}

TEST(CompareReportsTest, IdenticalReportsPass) {
  const obs::RunReport golden = GoldenReport();
  const BaselineDiff diff = CompareReports(golden, golden);
  std::ostringstream out;
  PrintDiff(diff, out);
  EXPECT_TRUE(diff.ok()) << out.str();
  EXPECT_EQ(diff.failures(), 0u);
  EXPECT_TRUE(diff.structural_mismatches.empty());
}

TEST(CompareReportsTest, P99DriftBeyondToleranceFails) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.response.p99 *= 1.05;  // 5% > the 3% default
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  const DiffEntry* e = FindEntry(diff, "response.p99");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->ok);
  EXPECT_NEAR(e->relative_delta, 0.05, 1e-9);
}

TEST(CompareReportsTest, P99DriftWithinTolerancePasses) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.response.p99 *= 1.02;  // 2% < 3%
  const BaselineDiff diff = CompareReports(golden, actual);
  std::ostringstream out;
  PrintDiff(diff, out);
  EXPECT_TRUE(diff.ok()) << out.str();
}

TEST(CompareReportsTest, CountsAreExact) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.cache_hits += 1;  // off by one: a 0.007% drift, still a failure
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  const DiffEntry* e = FindEntry(diff, "requests.cache_hits");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->ok);
  EXPECT_EQ(e->tolerance, 0.0);
}

TEST(CompareReportsTest, PerDiskServesAreExact) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.served_per_disk[1] -= 1;
  EXPECT_FALSE(CompareReports(golden, actual).ok());
}

TEST(CompareReportsTest, ThroughputDriftFailsWhenChecked) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.slots_per_second *= 1.10;
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  const DiffEntry* e = FindEntry(diff, "throughput.slots_per_second");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->ok);
  EXPECT_FALSE(e->informational);
}

TEST(CompareReportsTest, ThroughputIsInformationalWhenSkipped) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.slots_per_second *= 10.0;  // a different machine entirely
  ToleranceOptions options;
  options.check_throughput = false;
  const BaselineDiff diff = CompareReports(golden, actual, options);
  std::ostringstream out;
  PrintDiff(diff, out);
  EXPECT_TRUE(diff.ok()) << out.str();
  const DiffEntry* e = FindEntry(diff, "throughput.slots_per_second");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->informational);
  EXPECT_GT(e->relative_delta, 1.0);  // still recorded for the artifact
}

TEST(CompareReportsTest, CustomPerfToleranceApplies) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.response.mean *= 1.05;
  ToleranceOptions loose;
  loose.perf = 0.10;
  EXPECT_TRUE(CompareReports(golden, actual, loose).ok());
  ToleranceOptions tight;
  tight.perf = 0.01;
  EXPECT_FALSE(CompareReports(golden, actual, tight).ok());
}

TEST(CompareReportsTest, DifferentIdentityIsStructuralMismatch) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.config = "disks<100>@freqs{1}";
  actual.seed = 7;
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  EXPECT_GE(diff.structural_mismatches.size(), 2u);
}

TEST(CompareReportsTest, DiskCountMismatchIsStructural) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.served_per_disk.pop_back();
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  EXPECT_FALSE(diff.structural_mismatches.empty());
}

TEST(CompareReportsTest, DifferentOptimizerIsStructuralMismatch) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.optimizer = "delta";
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  EXPECT_EQ(diff.structural_mismatches.size(), 1u);
}

TEST(CompareReportsTest, IntegralExtrasAreExact) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.extra[0].second += 1.0;
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  const DiffEntry* entry = FindEntry(diff, "extra.stale_hits");
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->ok);
  EXPECT_EQ(entry->tolerance, 0.0);
}

TEST(CompareReportsTest, FractionalExtrasUsePerfTolerance) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.extra[1].second *= 1.01;  // within 3%
  EXPECT_TRUE(CompareReports(golden, actual).ok());
  actual.extra[1].second = golden.extra[1].second * 1.05;
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  const DiffEntry* entry = FindEntry(diff, "extra.stale_fraction");
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->ok);
}

TEST(CompareReportsTest, MissingExtraIsStructural) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.extra.pop_back();
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  EXPECT_EQ(diff.structural_mismatches.size(), 1u);
}

TEST(CompareReportsTest, AddedExtraIsStructural) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.extra.emplace_back("client0_hit_rate", 0.7);
  const BaselineDiff diff = CompareReports(golden, actual);
  EXPECT_FALSE(diff.ok());
  EXPECT_EQ(diff.structural_mismatches.size(), 1u);
}

TEST(CompareReportsTest, ProfileWallClockExtrasFollowThroughput) {
  obs::RunReport golden = GoldenReport();
  golden.extra.emplace_back("profile_total_cpu_ns", 1000.0);
  obs::RunReport actual = golden;
  actual.extra.back().second = 2000.0;
  EXPECT_FALSE(CompareReports(golden, actual).ok());
  ToleranceOptions options;
  options.check_throughput = false;
  EXPECT_TRUE(CompareReports(golden, actual, options).ok());
}

TEST(CompareReportsTest, DiffJsonSerializes) {
  const obs::RunReport golden = GoldenReport();
  obs::RunReport actual = golden;
  actual.response.p99 *= 1.5;
  const BaselineDiff diff = CompareReports(golden, actual);
  std::ostringstream out;
  WriteDiffJson(diff, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("response.p99"), std::string::npos);
}

TEST(CompareReportsTest, SurvivesJsonRoundTrip) {
  // The CI path: golden and candidate both travel through files. The
  // comparison must behave identically on re-parsed reports.
  const obs::RunReport golden = GoldenReport();
  std::ostringstream out;
  golden.WriteJson(out);
  Result<obs::RunReport> reloaded = obs::ReadRunReport(out.str());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const BaselineDiff diff = CompareReports(golden, *reloaded);
  std::ostringstream printed;
  PrintDiff(diff, printed);
  EXPECT_TRUE(diff.ok()) << printed.str();
}

class FindBaselineFileTest : public ::testing::Test {
 protected:
  std::string WriteReport(const obs::RunReport& report,
                          const std::string& name) {
    const std::string path = dir_ + "/" + name;
    std::ofstream out(path);
    report.WriteJson(out);
    return path;
  }

  std::string dir_ = ::testing::TempDir() + "baseline_lookup";

  void SetUp() override {
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

TEST_F(FindBaselineFileTest, MatchesByIdentityNotFilename) {
  obs::RunReport other = GoldenReport();
  other.config = "something else";
  WriteReport(other, "aaa_first_alphabetically.json");
  const std::string match = WriteReport(GoldenReport(), "zzz_match.json");

  Result<std::string> found = FindBaselineFile(GoldenReport(), dir_);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(*found, match);
}

TEST_F(FindBaselineFileTest, NoMatchIsNotFound) {
  WriteReport(GoldenReport(), "golden.json");
  obs::RunReport other = GoldenReport();
  other.seed = 999;
  Result<std::string> found = FindBaselineFile(other, dir_);
  EXPECT_FALSE(found.ok());
}

TEST_F(FindBaselineFileTest, SkipsUnparseableNeighbours) {
  std::ofstream(dir_ + "/garbage.json") << "{not json";
  const std::string match = WriteReport(GoldenReport(), "golden.json");
  Result<std::string> found = FindBaselineFile(GoldenReport(), dir_);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(*found, match);
}

TEST_F(FindBaselineFileTest, MissingDirectoryIsCleanError) {
  Result<std::string> found =
      FindBaselineFile(GoldenReport(), dir_ + "/nope");
  EXPECT_FALSE(found.ok());
}

}  // namespace
}  // namespace bcast::check
