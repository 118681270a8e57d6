/// \file histogram.h
/// \brief The observability histogram: HDR-style log buckets, cheap
/// enough for the simulator's hot loop.
///
/// `LogHistogram` covers many orders of magnitude (response times range
/// from 0 slots on a cache hit to a whole broadcast period on an unlucky
/// miss) with bounded relative error: each power-of-two octave is split
/// into `sub_buckets` linear sub-buckets, so recording is a couple of
/// float ops plus one `uint64_t` bump, with no locks. Bucket storage
/// covers only a prefix reaching a little past the highest bucket
/// touched so far: an unused histogram allocates nothing, and one that
/// only ever saw short waits never pays for the long-wait octaves.
/// `Merge()` combines per-client instances after a multi-client run.

#ifndef BCAST_OBS_HISTOGRAM_H_
#define BCAST_OBS_HISTOGRAM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace bcast::obs {

/// \brief Summary statistics extracted from a histogram — the headline
/// numbers a run report carries (all 0 when the histogram is empty, so
/// serializing an idle run never emits inf/nan).
struct HistogramSummary {
  uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// \brief Log-bucket (HDR-style) histogram over non-negative values.
class LogHistogram {
 public:
  /// \brief Bucket geometry. Two histograms can only `Merge` when their
  /// geometries match.
  struct Options {
    /// Values below this land in the single underflow bucket [0, min_value).
    double min_value = 1.0;

    /// Linear sub-buckets per power-of-two octave; bounds the relative
    /// error of `Quantile` at roughly 1/sub_buckets.
    uint64_t sub_buckets = 16;

    /// Octaves covered: the top regular bucket ends at
    /// min_value * 2^octaves; anything beyond goes to the overflow bucket.
    uint64_t octaves = 32;
  };

  LogHistogram() : LogHistogram(Options{}) {}
  explicit LogHistogram(Options options);

  /// Records one observation. Negative values and NaN clamp to 0.
  void Add(double value) {
    // The negated comparison also catches NaN, which would otherwise
    // poison sum_/min_/max_ and every quantile derived from them.
    if (!(value >= 0.0)) value = 0.0;
    const size_t idx = BucketIndex(value);
    if (idx >= counts_.size()) GrowTo(idx + 1);
    ++counts_[idx];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  /// Folds \p other into this histogram; geometries must match.
  void Merge(const LogHistogram& other);

  /// Returns to the empty state, keeping the geometry.
  void Reset();

  /// Observations recorded.
  uint64_t count() const { return count_; }

  /// Smallest observation; 0 when empty.
  double min() const { return count_ ? min_ : 0.0; }

  /// Largest observation; 0 when empty.
  double max() const { return count_ ? max_ : 0.0; }

  /// Sum of all observations.
  double sum() const { return sum_; }

  /// Mean observation; 0 when empty.
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Approximate quantile for \p q in [0, 1]: linear interpolation inside
  /// the containing bucket, clamped to the observed [min, max]. Returns 0
  /// when empty.
  double Quantile(double q) const;

  /// Convenience: count/mean/min/max/p50/p90/p99 in one struct.
  HistogramSummary Summary() const;

  /// \name Bucket introspection (tests, serialization).
  /// @{
  /// Total buckets including the underflow ([0, min_value)) bucket at
  /// index 0 and the overflow bucket at the last index.
  size_t num_buckets() const {
    return 2 + options_.octaves * options_.sub_buckets;
  }

  /// The bucket \p value would be recorded into. Underflow (a cache
  /// hit's 0 wait, and NaN) is decided inline and needs no bucket
  /// arithmetic.
  size_t BucketIndex(double value) const {
    if (!(value >= options_.min_value)) return 0;
    return OctaveBucketIndex(value);
  }

  /// Inclusive lower edge of bucket \p i.
  double BucketLower(size_t i) const;

  /// Exclusive upper edge of bucket \p i (the overflow bucket reports the
  /// largest observed value, or its lower edge when empty).
  double BucketUpper(size_t i) const;

  /// Observations in bucket \p i (0 past the stored prefix).
  uint64_t bucket_count(size_t i) const {
    return i < counts_.size() ? counts_[i] : 0;
  }
  /// @}

  const Options& options() const { return options_; }

 private:
  /// BucketIndex for \p value >= min_value.
  size_t OctaveBucketIndex(double value) const;

  /// Extends the stored prefix to at least \p size buckets.
  void GrowTo(size_t size);

  Options options_;
  // [underflow, regular..., overflow], stored through the highest bucket
  // touched plus GrowTo's headroom; the rest of the num_buckets()
  // geometry reads as 0.
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace bcast::obs

#endif  // BCAST_OBS_HISTOGRAM_H_
