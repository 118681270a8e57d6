#include "broadcast/analysis.h"

#include <gtest/gtest.h>

#include "broadcast/generator.h"

namespace bcast {
namespace {

// The three Figure-2 programs over pages {A=0, B=1, C=2}.
BroadcastProgram Flat3() {
  auto p = GenerateFlatProgram(3);
  EXPECT_TRUE(p.ok());
  return std::move(*p);
}
BroadcastProgram Skewed3() {
  auto layout = MakeLayout({1, 2}, {2, 1});
  auto p = GenerateSkewedProgram(*layout);  // A A B C
  EXPECT_TRUE(p.ok());
  return std::move(*p);
}
BroadcastProgram Multi3() {
  auto layout = MakeLayout({1, 2}, {2, 1});
  auto p = GenerateMultiDiskProgram(*layout);  // A B A C
  EXPECT_TRUE(p.ok());
  return std::move(*p);
}

TEST(ExpectedDelayTest, FlatProgramHalfPeriod) {
  BroadcastProgram p = Flat3();
  for (PageId page = 0; page < 3; ++page) {
    EXPECT_DOUBLE_EQ(ExpectedDelay(p, page), 1.5);
  }
}

TEST(ExpectedDelayTest, SkewedPerPageDelays) {
  BroadcastProgram p = Skewed3();
  // A: gaps 1 and 3 -> (1 + 9) / (2*4) = 1.25.
  EXPECT_DOUBLE_EQ(ExpectedDelay(p, 0), 1.25);
  EXPECT_DOUBLE_EQ(ExpectedDelay(p, 1), 2.0);
  EXPECT_DOUBLE_EQ(ExpectedDelay(p, 2), 2.0);
}

TEST(ExpectedDelayTest, MultiDiskPerPageDelays) {
  BroadcastProgram p = Multi3();
  EXPECT_DOUBLE_EQ(ExpectedDelay(p, 0), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedDelay(p, 1), 2.0);
  EXPECT_DOUBLE_EQ(ExpectedDelay(p, 2), 2.0);
}

// Table 1 of the paper, all twelve cells.
struct Table1Case {
  std::vector<double> probs;
  double flat;
  double skewed;
  double multi;
};

// Names each case by its access probabilities. Without it gtest prints the
// raw bytes of the struct, which include the vector's heap address, so the
// discovered test names would change from build to build.
void PrintTo(const Table1Case& c, std::ostream* os) {
  *os << "probs";
  for (double p : c.probs) *os << ' ' << p;
}

class Table1Test : public ::testing::TestWithParam<Table1Case> {};

TEST_P(Table1Test, MatchesPaper) {
  const Table1Case& c = GetParam();
  EXPECT_NEAR(ExpectedDelayForDistribution(Flat3(), c.probs), c.flat, 1e-9);
  EXPECT_NEAR(ExpectedDelayForDistribution(Skewed3(), c.probs), c.skewed,
              1e-9);
  EXPECT_NEAR(ExpectedDelayForDistribution(Multi3(), c.probs), c.multi,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table1Test,
    ::testing::Values(
        Table1Case{{1.0 / 3, 1.0 / 3, 1.0 / 3}, 1.50, 1.75, 5.0 / 3},
        Table1Case{{0.50, 0.25, 0.25}, 1.50, 1.625, 1.50},
        Table1Case{{0.75, 0.125, 0.125}, 1.50, 1.4375, 1.25},
        Table1Case{{0.90, 0.05, 0.05}, 1.50, 1.325, 1.10}));

TEST(Table1PropertiesTest, UniformAccessFavorsFlat) {
  const std::vector<double> uniform{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const double flat = ExpectedDelayForDistribution(Flat3(), uniform);
  EXPECT_LT(flat, ExpectedDelayForDistribution(Skewed3(), uniform));
  EXPECT_LT(flat, ExpectedDelayForDistribution(Multi3(), uniform));
}

TEST(Table1PropertiesTest, MultiDiskAlwaysBeatsSkewed) {
  // The Bus Stop Paradox: for any access distribution, the regular
  // program is at least as good as the clustered one.
  for (double pa : {0.0, 0.2, 1.0 / 3, 0.5, 0.75, 0.9, 1.0}) {
    const std::vector<double> probs{pa, (1 - pa) / 2, (1 - pa) / 2};
    EXPECT_LE(ExpectedDelayForDistribution(Multi3(), probs),
              ExpectedDelayForDistribution(Skewed3(), probs) + 1e-12)
        << "pa = " << pa;
  }
}

TEST(Table1PropertiesTest, SkewFavorsMultiDiskOverFlat) {
  const std::vector<double> skewed_access{0.90, 0.05, 0.05};
  EXPECT_LT(ExpectedDelayForDistribution(Multi3(), skewed_access),
            ExpectedDelayForDistribution(Flat3(), skewed_access));
}

TEST(GapVarianceTest, ZeroIffFixedInterArrival) {
  EXPECT_DOUBLE_EQ(GapVariance(Multi3(), 0), 0.0);
  EXPECT_GT(GapVariance(Skewed3(), 0), 0.0);
}

TEST(LargeScaleTest, FlatFiveThousandPages) {
  auto p = GenerateFlatProgram(5000);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(ExpectedDelay(*p, 0), 2500.0);
  EXPECT_DOUBLE_EQ(ExpectedDelay(*p, 4999), 2500.0);
}

TEST(LargeScaleTest, D5AnalyticDelaysOrderedByDisk) {
  auto layout = MakeDeltaLayout({500, 2000, 2500}, 3);
  auto program = GenerateMultiDiskProgram(*layout);
  ASSERT_TRUE(program.ok());
  const double fast = ExpectedDelay(*program, 0);
  const double mid = ExpectedDelay(*program, 600);
  const double slow = ExpectedDelay(*program, 3000);
  EXPECT_LT(fast, mid);
  EXPECT_LT(mid, slow);
  // Frequencies 7:4:1 -> delays scale inversely with frequency.
  EXPECT_NEAR(slow / fast, 7.0, 1e-9);
  EXPECT_NEAR(slow / mid, 4.0, 1e-9);
  EXPECT_NEAR(mid / fast, 7.0 / 4.0, 1e-9);
}

}  // namespace
}  // namespace bcast
