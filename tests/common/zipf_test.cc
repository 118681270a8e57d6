#include "common/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <vector>

namespace bcast {
namespace {

TEST(ZipfTest, RejectsBadArguments) {
  EXPECT_FALSE(ZipfDistribution::Make(0, 1.0).ok());
  EXPECT_FALSE(ZipfDistribution::Make(10, -0.1).ok());
  EXPECT_FALSE(ZipfDistribution::Make(10, std::nan("")).ok());
  EXPECT_TRUE(ZipfDistribution::Make(1, 0.0).ok());
}

TEST(ZipfTest, ProbabilitiesSumToOne) {
  auto zipf = ZipfDistribution::Make(100, 0.95);
  ASSERT_TRUE(zipf.ok());
  double total = 0.0;
  for (uint64_t r = 1; r <= 100; ++r) total += zipf->Probability(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  auto zipf = ZipfDistribution::Make(50, 0.0);
  ASSERT_TRUE(zipf.ok());
  for (uint64_t r = 1; r <= 50; ++r) {
    EXPECT_NEAR(zipf->Probability(r), 1.0 / 50.0, 1e-12);
  }
}

TEST(ZipfTest, ProbabilityRatioMatchesPowerLaw) {
  const double theta = 0.95;
  auto zipf = ZipfDistribution::Make(10, theta);
  ASSERT_TRUE(zipf.ok());
  // P(i)/P(j) = (j/i)^theta.
  EXPECT_NEAR(zipf->Probability(1) / zipf->Probability(2),
              std::pow(2.0, theta), 1e-9);
  EXPECT_NEAR(zipf->Probability(2) / zipf->Probability(6),
              std::pow(3.0, theta), 1e-9);
}

TEST(ZipfTest, ProbabilitiesDecreaseWithRank) {
  auto zipf = ZipfDistribution::Make(100, 1.2);
  ASSERT_TRUE(zipf.ok());
  for (uint64_t r = 2; r <= 100; ++r) {
    EXPECT_LT(zipf->Probability(r), zipf->Probability(r - 1));
  }
}

TEST(ZipfTest, SampleFrequenciesMatchProbabilities) {
  auto zipf = ZipfDistribution::Make(20, 0.95);
  ASSERT_TRUE(zipf.ok());
  Rng rng(31);
  const int n = 200000;
  std::vector<int> counts(21, 0);
  for (int i = 0; i < n; ++i) {
    const uint64_t r = zipf->Sample(&rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 20u);
    ++counts[r];
  }
  for (uint64_t r = 1; r <= 20; ++r) {
    const double expected = zipf->Probability(r) * n;
    EXPECT_NEAR(counts[r], expected, 5 * std::sqrt(expected) + 5)
        << "rank " << r;
  }
}

TEST(ZipfTest, SingleRankAlwaysSampled) {
  auto zipf = ZipfDistribution::Make(1, 0.95);
  ASSERT_TRUE(zipf.ok());
  Rng rng(32);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf->Sample(&rng), 1u);
}

// --- Region variant (the paper's client access distribution) ---

TEST(RegionZipfTest, RejectsBadArguments) {
  EXPECT_FALSE(RegionZipfGenerator::Make(0, 50, 0.95).ok());
  EXPECT_FALSE(RegionZipfGenerator::Make(1000, 0, 0.95).ok());
  EXPECT_FALSE(RegionZipfGenerator::Make(1000, 50, -1.0).ok());
}

TEST(RegionZipfTest, PaperConfigurationHasTwentyRegions) {
  auto gen = RegionZipfGenerator::Make(1000, 50, 0.95);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->num_regions(), 20u);
  EXPECT_EQ(gen->access_range(), 1000u);
}

TEST(RegionZipfTest, ProbabilitiesSumToOne) {
  auto gen = RegionZipfGenerator::Make(1000, 50, 0.95);
  ASSERT_TRUE(gen.ok());
  double total = 0.0;
  for (uint64_t p = 0; p < 1000; ++p) total += gen->Probability(p);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RegionZipfTest, UniformWithinRegion) {
  auto gen = RegionZipfGenerator::Make(1000, 50, 0.95);
  ASSERT_TRUE(gen.ok());
  for (uint64_t p = 0; p + 1 < 50; ++p) {
    EXPECT_DOUBLE_EQ(gen->Probability(p), gen->Probability(p + 1));
  }
  for (uint64_t p = 950; p + 1 < 1000; ++p) {
    EXPECT_DOUBLE_EQ(gen->Probability(p), gen->Probability(p + 1));
  }
}

TEST(RegionZipfTest, RegionsFollowZipfRatios) {
  const double theta = 0.95;
  auto gen = RegionZipfGenerator::Make(1000, 50, theta);
  ASSERT_TRUE(gen.ok());
  // Page 0 is in region 1, page 50 in region 2 (equal-size regions):
  // per-page probability ratio equals the region-weight ratio 2^theta.
  EXPECT_NEAR(gen->Probability(0) / gen->Probability(50),
              std::pow(2.0, theta), 1e-9);
}

TEST(RegionZipfTest, ZeroOutsideAccessRange) {
  auto gen = RegionZipfGenerator::Make(1000, 50, 0.95);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->Probability(1000), 0.0);
  EXPECT_EQ(gen->Probability(4999), 0.0);
}

TEST(RegionZipfTest, PartialFinalRegionIsHandled) {
  // 130 pages, regions of 50: regions of 50, 50, and 30 pages.
  auto gen = RegionZipfGenerator::Make(130, 50, 0.95);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->num_regions(), 3u);
  double total = 0.0;
  for (uint64_t p = 0; p < 130; ++p) total += gen->Probability(p);
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Pages in the final 30-page region share that region's weight.
  EXPECT_DOUBLE_EQ(gen->Probability(100), gen->Probability(129));
}

TEST(RegionZipfTest, SamplesStayInRangeAndMatchDistribution) {
  auto gen = RegionZipfGenerator::Make(200, 50, 0.95);
  ASSERT_TRUE(gen.ok());
  Rng rng(33);
  const int n = 200000;
  std::vector<int> region_counts(4, 0);
  for (int i = 0; i < n; ++i) {
    const uint64_t p = gen->Sample(&rng);
    ASSERT_LT(p, 200u);
    ++region_counts[p / 50];
  }
  for (uint64_t r = 0; r < 4; ++r) {
    const double expected = gen->Probability(r * 50) * 50 * n;
    EXPECT_NEAR(region_counts[r], expected, 5 * std::sqrt(expected) + 5);
  }
}

TEST(RegionZipfTest, HigherThetaIsMoreSkewed) {
  auto mild = RegionZipfGenerator::Make(1000, 50, 0.5);
  auto steep = RegionZipfGenerator::Make(1000, 50, 1.5);
  ASSERT_TRUE(mild.ok());
  ASSERT_TRUE(steep.ok());
  EXPECT_GT(steep->Probability(0), mild->Probability(0));
  EXPECT_LT(steep->Probability(999), mild->Probability(999));
}

// --- CdfGuide: the guide-table lookup is std::lower_bound ---

uint64_t LowerBoundIndex(const std::vector<double>& cdf, double u) {
  return static_cast<uint64_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

// A CDF built as ZipfDistribution::Make builds its rank CDF: running sums
// divided by the total, last entry set to 1.
std::vector<double> RankCdf(const std::vector<double>& weights) {
  std::vector<double> cdf(weights.size());
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    total += weights[i];
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

// A CDF built as RegionZipfGenerator::Make builds its region CDF: each
// weight divided by the total, then summed (which may overshoot 1 before
// the last entry), last entry set to 1.
std::vector<double> RegionCdf(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<double> cdf(weights.size());
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] / total;
    cdf[i] = acc;
  }
  cdf.back() = 1.0;
  return cdf;
}

std::vector<double> ZipfWeights(uint64_t n, double theta) {
  std::vector<double> weights(n);
  for (uint64_t i = 0; i < n; ++i) {
    weights[i] = std::pow(1.0 / static_cast<double>(i + 1), theta);
  }
  return weights;
}

// Find(u) == lower_bound(u) at u = 0, at every CDF value below 1 and the
// double just below it, at every k/M guide edge and the double just below
// it, and at \p random_draws uniform draws.
void ExpectGuideMatchesLowerBound(const std::vector<double>& cdf,
                                  int random_draws, Rng* rng) {
  const CdfGuide guide(cdf);
  std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
  for (double c : cdf) {
    us.push_back(c);
    us.push_back(std::nextafter(c, 0.0));
  }
  const uint64_t m = std::bit_ceil(cdf.size());
  for (uint64_t k = 1; k < m; ++k) {
    const double edge = static_cast<double>(k) / static_cast<double>(m);
    us.push_back(edge);
    us.push_back(std::nextafter(edge, 0.0));
  }
  for (int i = 0; i < random_draws; ++i) us.push_back(rng->NextDouble());
  for (double u : us) {
    if (!(u >= 0.0 && u < 1.0)) continue;  // Find's domain
    ASSERT_EQ(guide.Find(u), LowerBoundIndex(cdf, u))
        << "u " << u << " over " << cdf.size() << " entries";
  }
}

TEST(CdfGuideTest, MatchesLowerBoundOnRandomCdfs) {
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const uint64_t n = 1 + rng.NextBounded(trial < 100 ? 8 : 300);
    // About a third of the weights are 0: flat stretches, some at 0.
    std::vector<double> weights(n);
    for (double& w : weights) {
      w = rng.NextBounded(3) == 0 ? 0.0 : rng.NextDouble();
    }
    weights[rng.NextBounded(n)] += 0.5;  // a positive total
    ExpectGuideMatchesLowerBound(RankCdf(weights), 200, &rng);
    ExpectGuideMatchesLowerBound(RegionCdf(weights), 200, &rng);
  }
}

TEST(CdfGuideTest, MatchesLowerBoundOnSteepZipf) {
  // theta = 8 over 5000 ranks: past rank ~100 the weights fall below the
  // running sum's rounding, so the CDF is flat at 1 for thousands of
  // entries before the last.
  const std::vector<double> cdf = RankCdf(ZipfWeights(5000, 8.0));
  uint64_t flat = 0;
  for (size_t i = 1; i < cdf.size(); ++i) flat += cdf[i] == cdf[i - 1];
  EXPECT_GT(flat, 4000u);
  Rng rng(42);
  ExpectGuideMatchesLowerBound(cdf, 20000, &rng);
  ExpectGuideMatchesLowerBound(RegionCdf(ZipfWeights(5000, 8.0)), 20000,
                               &rng);
}

TEST(CdfGuideTest, MatchesLowerBoundOnPartialFinalRegion) {
  // 1030 pages in regions of 50: 20 full regions and one of 30 pages,
  // which carries the full weight of region 21.
  Rng rng(43);
  ExpectGuideMatchesLowerBound(RegionCdf(ZipfWeights(21, 0.95)), 20000, &rng);
  ExpectGuideMatchesLowerBound(RegionCdf(ZipfWeights(3, 0.95)), 20000, &rng);
}

TEST(CdfGuideTest, MatchesLowerBoundPastSixteenBitIndices) {
  // Over 65536 entries the 16-bit guide stores indices rounded down to a
  // multiple of 2 (70000 entries) or 4 (140000 entries). A start rounded
  // down only lengthens the scan, so this checks exactness, not speed.
  Rng rng(44);
  ExpectGuideMatchesLowerBound(RankCdf(ZipfWeights(70000, 0.95)), 5000, &rng);
  ExpectGuideMatchesLowerBound(RankCdf(ZipfWeights(140000, 0.5)), 5000, &rng);
}

TEST(CdfGuideTest, SamplersDrawTheLowerBoundIndex) {
  // Each sampler draws exactly what a lower_bound over the same CDF and
  // the same stream gives.
  const auto zipf = ZipfDistribution::Make(5000, 8.0);
  ASSERT_TRUE(zipf.ok());
  const std::vector<double> rank_cdf = RankCdf(ZipfWeights(5000, 8.0));
  Rng rng(45), ref(45);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(zipf->Sample(&rng),
              LowerBoundIndex(rank_cdf, ref.NextDouble()) + 1);
  }

  const auto gen = RegionZipfGenerator::Make(1030, 50, 0.95);
  ASSERT_TRUE(gen.ok());
  const std::vector<double> region_cdf = RegionCdf(ZipfWeights(21, 0.95));
  for (int i = 0; i < 20000; ++i) {
    const uint64_t region = LowerBoundIndex(region_cdf, ref.NextDouble());
    const uint64_t pages = region == 20 ? 30 : 50;
    ASSERT_EQ(gen->Sample(&rng), region * 50 + ref.NextBounded(pages));
  }
}

}  // namespace
}  // namespace bcast
