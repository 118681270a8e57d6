#include "core/experiment.h"

#include <gtest/gtest.h>

#include <sstream>

namespace bcast {
namespace {

SimParams TinyParams() {
  SimParams params;
  params.disk_sizes = {20, 80};
  params.delta = 2;
  params.access_range = 40;
  params.region_size = 4;
  params.cache_size = 1;
  params.measured_requests = 2000;
  return params;
}

TEST(SweepDeltaTest, ReturnsOneValuePerDelta) {
  auto values = SweepDelta(TinyParams(), {0, 1, 2, 3});
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  ASSERT_EQ(values->size(), 4u);
  // Flat (delta 0) must be near half the database size.
  EXPECT_NEAR((*values)[0], 50.0, 8.0);
  // With a matched broadcast, skew helps this no-cache client.
  EXPECT_LT((*values)[3], (*values)[0]);
}

TEST(SweepDeltaTest, PropagatesErrors) {
  SimParams bad = TinyParams();
  bad.cache_size = 0;
  EXPECT_FALSE(SweepDelta(bad, {0, 1}).ok());
}

TEST(SweepNoiseTest, MoreNoiseNeverHelpsMatchedBroadcast) {
  auto values = SweepNoise(TinyParams(), {0.0, 50.0, 100.0});
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), 3u);
  EXPECT_LT((*values)[0], (*values)[2]);
}

TEST(PrintXYTableTest, RendersTitleHeadersAndValues) {
  std::ostringstream out;
  PrintXYTable(out, "Figure X", "Delta", {0.0, 1.0},
               {{"LRU", {10.0, 20.0}}, {"LIX", {5.0, 7.5}}});
  const std::string s = out.str();
  EXPECT_NE(s.find("Figure X"), std::string::npos);
  EXPECT_NE(s.find("Delta"), std::string::npos);
  EXPECT_NE(s.find("LRU"), std::string::npos);
  EXPECT_NE(s.find("20.0"), std::string::npos);
  EXPECT_NE(s.find("7.5"), std::string::npos);
}

TEST(PrintXYTableTest, IntegerXsPrintedWithoutDecimals) {
  std::ostringstream out;
  PrintXYTable(out, "T", "Delta", {3.0}, {{"S", {1.0}}});
  // The integral x renders as "3" (right-aligned), not "3.0".
  EXPECT_EQ(out.str().find("3.0"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find(" 3"), std::string::npos) << out.str();
}

TEST(PrintXYTableTest, FractionalXsKeepDistinctLabels) {
  std::ostringstream out;
  PrintXYTable(out, "T", "alpha", {0.05, 0.1, 0.25, 2.0},
               {{"S", {1.0, 2.0, 3.0, 4.0}}});
  const std::string s = out.str();
  // One shared width for the fractional xs, enough to tell 0.05 from 0.1;
  // the y values keep the default one decimal.
  for (const char* label : {"0.05", "0.10", "0.25", " 2 "}) {
    EXPECT_NE(s.find(label), std::string::npos) << label << "\n" << s;
  }
  EXPECT_NE(s.find("1.0"), std::string::npos) << s;
}

TEST(PrintXYCsvTest, EmitsHeaderAndRows) {
  std::ostringstream out;
  PrintXYCsv(out, "delta", {0.0, 1.0}, {{"LRU", {10.0, 20.0}}}, 1);
  EXPECT_EQ(out.str(), "delta,LRU\n0.0,10.0\n1.0,20.0\n");
}

TEST(PrintLocationTableTest, RendersPercentages) {
  std::ostringstream out;
  PrintLocationTable(out, "Figure 11", {"P", "PIX"},
                     {{0.5, 0.2, 0.2, 0.1}, {0.4, 0.3, 0.2, 0.1}});
  const std::string s = out.str();
  EXPECT_NE(s.find("Cache%"), std::string::npos);
  EXPECT_NE(s.find("Disk3%"), std::string::npos);
  EXPECT_NE(s.find("50.0"), std::string::npos);
  EXPECT_NE(s.find("PIX"), std::string::npos);
}

TEST(PrintXYTableDeathTest, MismatchedSeriesDies) {
  std::ostringstream out;
  EXPECT_DEATH(
      PrintXYTable(out, "T", "x", {0.0, 1.0}, {{"S", {1.0}}}),
      "length mismatch");
}

}  // namespace
}  // namespace bcast
