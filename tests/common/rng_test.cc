#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace bcast {
namespace {

TEST(SplitMix64Test, KnownVector) {
  // Reference values for splitmix64 seeded with 0 (from Vigna's reference
  // implementation).
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(&state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(&state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64(&state), 0x06c45d188009454fULL);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ZeroSeedIsValid) {
  Rng rng(0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.Next());
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(RngTest, ReseedRestartsTheStream) {
  Rng rng(9);
  const uint64_t first = rng.Next();
  rng.Next();
  rng.Reseed(9);
  EXPECT_EQ(rng.Next(), first);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedOneAlwaysZero) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextBoundedRoughlyUniform) {
  Rng rng(13);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (uint64_t b = 0; b < bound; ++b) {
    EXPECT_NEAR(counts[b], n / static_cast<int>(bound), 600)
        << "bucket " << b;
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(21);
  const double p = 0.3;
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(p);
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(23);
  const double mean = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextExponential(mean);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, mean, 0.05);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(99);
  Rng s1 = parent.Split(1);
  Rng s2 = parent.Split(2);
  Rng s1_again = parent.Split(1);
  EXPECT_EQ(s1.Next(), s1_again.Next());
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (s1.Next() == s2.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitDoesNotAdvanceParent) {
  Rng a(4), b(4);
  (void)a.Split(7);
  EXPECT_EQ(a.Next(), b.Next());
}

}  // namespace
}  // namespace bcast
