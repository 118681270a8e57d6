#include "core/metrics.h"

#include "common/logging.h"

namespace bcast {

double ClientMetrics::hit_rate() const {
  const uint64_t total = requests();
  return total == 0
             ? 0.0
             : static_cast<double>(cache_hits_) / static_cast<double>(total);
}

std::vector<double> ClientMetrics::LocationFractions() const {
  std::vector<double> fractions(1 + served_per_disk_.size(), 0.0);
  const uint64_t total = requests();
  if (total == 0) return fractions;
  fractions[0] =
      static_cast<double>(cache_hits_) / static_cast<double>(total);
  for (size_t d = 0; d < served_per_disk_.size(); ++d) {
    fractions[1 + d] =
        static_cast<double>(served_per_disk_[d]) / static_cast<double>(total);
  }
  return fractions;
}

void ClientMetrics::Merge(const ClientMetrics& other) {
  BCAST_CHECK_EQ(served_per_disk_.size(), other.served_per_disk_.size())
      << "merging metrics from different broadcast programs";
  response_time_.Merge(other.response_time_);
  tuning_time_.Merge(other.tuning_time_);
  response_hist_.Merge(other.response_hist_);
  tuning_hist_.Merge(other.tuning_hist_);
  cache_hits_ += other.cache_hits_;
  for (size_t d = 0; d < served_per_disk_.size(); ++d) {
    served_per_disk_[d] += other.served_per_disk_[d];
  }
}

}  // namespace bcast
