#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace bcast::obs {

LogHistogram::LogHistogram(Options options) : options_(options) {
  BCAST_CHECK_GT(options_.min_value, 0.0);
  BCAST_CHECK_GE(options_.sub_buckets, 1u);
  BCAST_CHECK_GE(options_.octaves, 1u);
}

size_t LogHistogram::OctaveBucketIndex(double value) const {
  // value / min_value = frac * 2^exp with frac in [0.5, 1), exp >= 1, so
  // octave e covers [min_value * 2^(e-1), min_value * 2^e).
  int exp = 0;
  const double frac = std::frexp(value / options_.min_value, &exp);
  const uint64_t sub = static_cast<uint64_t>(
      (frac - 0.5) * 2.0 * static_cast<double>(options_.sub_buckets));
  const size_t idx =
      1 + static_cast<size_t>(exp - 1) * options_.sub_buckets +
      std::min<size_t>(sub, options_.sub_buckets - 1);
  return std::min(idx, num_buckets() - 1);
}

double LogHistogram::BucketLower(size_t i) const {
  BCAST_CHECK_LT(i, num_buckets());
  if (i == 0) return 0.0;
  const size_t octave = (i - 1) / options_.sub_buckets;
  const size_t sub = (i - 1) % options_.sub_buckets;
  const double base = options_.min_value * std::ldexp(1.0, static_cast<int>(octave));
  return base * (1.0 + static_cast<double>(sub) /
                           static_cast<double>(options_.sub_buckets));
}

double LogHistogram::BucketUpper(size_t i) const {
  BCAST_CHECK_LT(i, num_buckets());
  if (i + 1 < num_buckets()) return BucketLower(i + 1);
  // Overflow bucket: the best honest upper edge is the largest value seen.
  return std::max(BucketLower(i), count_ ? max_ : BucketLower(i));
}

void LogHistogram::GrowTo(size_t size) {
  // Whole octaves, through two past the one holding bucket size - 1, so
  // values up to 4x the largest seen land without reallocating: in a
  // population each regrowth touches fresh heap mid-run.
  const size_t sub = options_.sub_buckets;
  const size_t octave = size < 2 ? 0 : (size - 2) / sub;
  size = std::min(num_buckets(), 1 + (octave + 3) * sub);
  counts_.reserve(size);
  counts_.resize(size, 0);
}

void LogHistogram::Merge(const LogHistogram& other) {
  BCAST_CHECK_EQ(num_buckets(), other.num_buckets())
      << "merging histograms with different geometries";
  BCAST_CHECK_EQ(options_.min_value, other.options_.min_value);
  if (other.counts_.size() > counts_.size()) GrowTo(other.counts_.size());
  for (size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void LogHistogram::Reset() {
  counts_.clear();
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [0, count-1]; walk buckets to the one containing it and
  // interpolate linearly inside.
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t before = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double last_in_bucket =
        static_cast<double>(before + counts_[i] - 1);
    if (rank <= last_in_bucket) {
      const double within =
          counts_[i] == 1
              ? 0.0
              : (rank - static_cast<double>(before)) /
                    static_cast<double>(counts_[i] - 1);
      const double lower = BucketLower(i);
      const double upper = BucketUpper(i);
      return std::clamp(lower + (upper - lower) * within, min_, max_);
    }
    before += counts_[i];
  }
  return max_;
}

HistogramSummary LogHistogram::Summary() const {
  HistogramSummary s;
  s.count = count_;
  s.mean = mean();
  s.min = min();
  s.max = max();
  s.p50 = Quantile(0.50);
  s.p90 = Quantile(0.90);
  s.p99 = Quantile(0.99);
  return s;
}

}  // namespace bcast::obs
