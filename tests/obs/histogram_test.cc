#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

namespace bcast::obs {
namespace {

TEST(LogHistogramTest, EmptyStateIsAllZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(LogHistogramTest, BucketBoundaries) {
  LogHistogram h;  // min_value 1, 16 sub-buckets per octave
  // Below min_value: the underflow bucket.
  EXPECT_EQ(h.BucketIndex(0.0), 0u);
  EXPECT_EQ(h.BucketIndex(0.99), 0u);
  // First octave [1, 2) spans buckets 1..16 in steps of 1/16.
  EXPECT_EQ(h.BucketIndex(1.0), 1u);
  EXPECT_EQ(h.BucketIndex(1.0 + 1.0 / 16.0), 2u);
  EXPECT_EQ(h.BucketIndex(2.0 - 1e-9), 16u);
  // Second octave [2, 4) starts at bucket 17.
  EXPECT_EQ(h.BucketIndex(2.0), 17u);
  EXPECT_EQ(h.BucketIndex(4.0), 33u);
  // Bucket edges round-trip: lower edge maps back to the same bucket.
  for (size_t i = 1; i < 40; ++i) {
    EXPECT_EQ(h.BucketIndex(h.BucketLower(i)), i) << "bucket " << i;
    EXPECT_LT(h.BucketLower(i), h.BucketUpper(i));
  }
}

TEST(LogHistogramTest, OverflowClampsToLastBucket) {
  LogHistogram::Options options;
  options.octaves = 4;  // top regular value: 16
  LogHistogram h(options);
  const size_t overflow = h.num_buckets() - 1;
  EXPECT_EQ(h.BucketIndex(1e12), overflow);
  h.Add(1e12);
  EXPECT_EQ(h.bucket_count(overflow), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
}

TEST(LogHistogramTest, NegativeValuesClampToZero) {
  LogHistogram h;
  h.Add(-5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(LogHistogramTest, QuantileInterpolationWithinRelativeError) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  // 16 sub-buckets bound the relative error near 1/16.
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 500.0 / 8.0);
  EXPECT_NEAR(h.Quantile(0.9), 900.0, 900.0 / 8.0);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 990.0 / 8.0);
  // Quantiles are clamped to the observed range and monotone.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.9));
  EXPECT_LE(h.Quantile(0.9), h.Quantile(0.99));
}

TEST(LogHistogramTest, SingleValueQuantilesCollapse) {
  LogHistogram h;
  h.Add(7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 7.0);
}

TEST(LogHistogramTest, MergeMatchesRecordingEverythingInOne) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram all;
  for (int i = 0; i < 100; ++i) {
    const double v = 1.0 + 3.7 * i;
    (i % 2 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  for (size_t i = 0; i < a.num_buckets(); ++i) {
    EXPECT_EQ(a.bucket_count(i), all.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(a.Quantile(0.9), all.Quantile(0.9));
}

TEST(LogHistogramTest, ResetKeepsGeometryClearsCounts) {
  LogHistogram h;
  h.Add(5.0);
  h.Add(500.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  h.Add(2.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(LogHistogramDeathTest, MergeGeometryMismatchDies) {
  LogHistogram a;
  LogHistogram::Options options;
  options.sub_buckets = 8;
  LogHistogram b(options);
  EXPECT_DEATH(a.Merge(b), "Check failed");
}

TEST(LogHistogramTest, NanClampsToZeroLikeNegatives) {
  // A NaN response time is always an upstream bug, but the histogram must
  // not let it poison sum/mean/min/max or the bucket index (NaN-to-integer
  // casts are UB). It lands in the underflow bucket like any negative.
  LogHistogram h;
  h.Add(std::nan(""));
  h.Add(5.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_FALSE(std::isnan(h.Quantile(0.5)));
  const HistogramSummary s = h.Summary();
  EXPECT_FALSE(std::isnan(s.p99));
}

TEST(LogHistogramTest, MergeOfDisjointRangesKeepsBothTails) {
  // One histogram saw only small values, the other only large ones; the
  // merge must report the union's extremes and place the median between
  // the two clusters, not inside either.
  LogHistogram small;
  LogHistogram large;
  for (int i = 0; i < 100; ++i) small.Add(1.0 + 0.01 * i);
  for (int i = 0; i < 100; ++i) large.Add(1000.0 + 10.0 * i);
  small.Merge(large);
  EXPECT_EQ(small.count(), 200u);
  EXPECT_DOUBLE_EQ(small.min(), 1.0);
  EXPECT_DOUBLE_EQ(small.max(), 1990.0);
  EXPECT_LE(small.Quantile(0.25), 2.0);
  EXPECT_GE(small.Quantile(0.75), 1000.0 / 2.0);
  EXPECT_LE(small.Quantile(0.49), small.Quantile(0.51));
}

// Bucket storage grows on demand, so histograms that saw different
// ranges hold different stored prefixes. Every observable must still be
// the same as if one histogram had recorded everything.
void ExpectSameHistogram(const LogHistogram& got, const LogHistogram& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.sum(), want.sum());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  const HistogramSummary g = got.Summary();
  const HistogramSummary w = want.Summary();
  EXPECT_EQ(g.count, w.count);
  EXPECT_EQ(g.mean, w.mean);
  EXPECT_EQ(g.p50, w.p50);
  EXPECT_EQ(g.p90, w.p90);
  EXPECT_EQ(g.p99, w.p99);
  for (int i = 0; i <= 20; ++i) {
    const double q = i / 20.0;
    EXPECT_EQ(got.Quantile(q), want.Quantile(q)) << "q=" << q;
  }
  ASSERT_EQ(got.num_buckets(), want.num_buckets());
  for (size_t i = 0; i < got.num_buckets(); ++i) {
    EXPECT_EQ(got.bucket_count(i), want.bucket_count(i)) << "bucket " << i;
  }
}

class LogHistogramStorageTest : public ::testing::Test {
 protected:
  // Top regular value 64: draws below 1 underflow, draws from 64 up
  // overflow. Multiples of 1/16 keep every sum exact in any order.
  static LogHistogram::Options Geometry() {
    LogHistogram::Options options;
    options.octaves = 6;
    return options;
  }

  void SetUp() override {
    std::mt19937_64 rng(2024);
    for (int i = 0; i < 1500; ++i) {
      short_values_.push_back(static_cast<double>(rng() % 128) / 16.0);
    }
    for (int i = 0; i < 1500; ++i) {
      long_values_.push_back(static_cast<double>(rng() % 3200) / 16.0);
    }
    for (double v : short_values_) all_.Add(v);
    for (double v : long_values_) all_.Add(v);
  }

  LogHistogram Fed(const std::vector<double>& values) const {
    LogHistogram h(Geometry());
    for (double v : values) h.Add(v);
    return h;
  }

  std::vector<double> short_values_;  // [0, 8): underflow and low octaves
  std::vector<double> long_values_;   // [0, 200): up into the overflow
  LogHistogram all_{Geometry()};
};

TEST_F(LogHistogramStorageTest, FreshHistogramReadsEmptyOverItsGeometry) {
  const LogHistogram h(Geometry());
  EXPECT_EQ(h.num_buckets(), 2u + 6u * 16u);
  for (size_t i = 0; i < h.num_buckets(); ++i) {
    EXPECT_EQ(h.bucket_count(i), 0u) << "bucket " << i;
  }
  ExpectSameHistogram(h, LogHistogram(Geometry()));
}

TEST_F(LogHistogramStorageTest, DrawsCoverUnderflowAndOverflow) {
  EXPECT_GT(all_.bucket_count(0), 0u);
  EXPECT_GT(all_.bucket_count(all_.num_buckets() - 1), 0u);
}

TEST_F(LogHistogramStorageTest, EmptyIntoFull) {
  LogHistogram full = Fed(short_values_);
  for (double v : long_values_) full.Add(v);
  full.Merge(LogHistogram(Geometry()));
  ExpectSameHistogram(full, all_);
}

TEST_F(LogHistogramStorageTest, FullIntoEmpty) {
  LogHistogram empty(Geometry());
  empty.Merge(all_);
  ExpectSameHistogram(empty, all_);
}

TEST_F(LogHistogramStorageTest, ShortIntoLong) {
  LogHistogram merged = Fed(long_values_);
  merged.Merge(Fed(short_values_));
  ExpectSameHistogram(merged, all_);
}

TEST_F(LogHistogramStorageTest, LongIntoShort) {
  LogHistogram merged = Fed(short_values_);
  merged.Merge(Fed(long_values_));
  ExpectSameHistogram(merged, all_);
}

TEST_F(LogHistogramStorageTest, ResetThenRefill) {
  LogHistogram h = Fed(long_values_);
  h.Reset();
  ExpectSameHistogram(h, LogHistogram(Geometry()));
  for (double v : short_values_) h.Add(v);
  ExpectSameHistogram(h, Fed(short_values_));
  for (double v : long_values_) h.Add(v);
  ExpectSameHistogram(h, all_);
}

}  // namespace
}  // namespace bcast::obs
