#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace bcast {
namespace {

TEST(RunningStatTest, EmptyState) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(RunningStatTest, SingleObservation) {
  RunningStat s;
  s.Add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  Rng rng(77);
  RunningStat whole, part1, part2;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 10.0;
    whole.Add(x);
    (i < 400 ? part1 : part2).Add(x);
  }
  part1.Merge(part2);
  EXPECT_EQ(part1.count(), whole.count());
  EXPECT_NEAR(part1.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(part1.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(part1.min(), whole.min());
  EXPECT_DOUBLE_EQ(part1.max(), whole.max());
}

TEST(RunningStatTest, MergeWithEmptySides) {
  RunningStat a, b;
  a.Add(1.0);
  a.Add(3.0);
  RunningStat a_copy = a;
  a.Merge(b);  // empty other: no change
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.Merge(a_copy);  // empty this: adopt other
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStatTest, Ci95ShrinksWithSamples) {
  Rng rng(78);
  RunningStat small, large;
  for (int i = 0; i < 100; ++i) small.Add(rng.NextDouble());
  for (int i = 0; i < 10000; ++i) large.Add(rng.NextDouble());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
  EXPECT_GT(small.ci95_halfwidth(), 0.0);
}

TEST(RunningStatTest, ResetClears) {
  RunningStat s;
  s.Add(5.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace bcast
