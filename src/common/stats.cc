#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace bcast {

void RunningStat::Merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const uint64_t total = n_ + other.n_;
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(total);
  mean_ += delta * nb / static_cast<double>(total);
  n_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

}  // namespace bcast
