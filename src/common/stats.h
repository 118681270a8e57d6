/// \file stats.h
/// \brief Streaming statistics used by the simulator's metrics layer.

#ifndef BCAST_COMMON_STATS_H_
#define BCAST_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <limits>

namespace bcast {

/// \brief Numerically stable streaming mean/variance/min/max (Welford).
class RunningStat {
 public:
  /// Folds one observation into the statistic.
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merges another statistic into this one (parallel Welford).
  void Merge(const RunningStat& other);

  /// Resets to the empty state.
  void Reset() { *this = RunningStat(); }

  /// Number of observations.
  uint64_t count() const { return n_; }

  /// Mean of the observations; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }

  /// Sample variance (n-1 denominator); 0 for fewer than two observations.
  double variance() const;

  /// Sample standard deviation.
  double stddev() const;

  /// Half-width of the ~95% normal-approximation confidence interval of
  /// the mean; 0 for fewer than two observations.
  double ci95_halfwidth() const;

  /// Smallest observation; +inf when empty.
  double min() const { return min_; }

  /// Largest observation; -inf when empty.
  double max() const { return max_; }

  /// Sum of all observations.
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace bcast

#endif  // BCAST_COMMON_STATS_H_
