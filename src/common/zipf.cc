#include "common/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

namespace bcast {

CdfGuide::CdfGuide(std::vector<double> cdf)
    : cdf_(std::move(cdf)),
      guide_(std::bit_ceil(cdf_.size())),
      scale_(static_cast<double>(guide_.size())),
      shift_(std::max(
          0, static_cast<int>(std::bit_width(cdf_.size() - 1)) - 16)) {
  BCAST_CHECK(!cdf_.empty());
  BCAST_CHECK_EQ(cdf_.back(), 1.0);
  // One sweep: i only moves forward as k / M grows. It stops at the last
  // entry at the latest, because k / M < 1 == cdf_.back().
  uint64_t i = 0;
  for (uint64_t k = 0; k < guide_.size(); ++k) {
    const double edge = static_cast<double>(k) / scale_;
    while (cdf_[i] < edge) ++i;
    guide_[k] = static_cast<uint16_t>(i >> shift_);
  }
}

Result<ZipfDistribution> ZipfDistribution::Make(uint64_t n, double theta) {
  if (n == 0) {
    return Status::InvalidArgument("Zipf: n must be positive");
  }
  if (theta < 0.0 || !std::isfinite(theta)) {
    return Status::InvalidArgument("Zipf: theta must be finite and >= 0, got " +
                                   std::to_string(theta));
  }
  std::vector<double> cdf(n);
  double total = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    total += std::pow(1.0 / static_cast<double>(i + 1), theta);
    cdf[i] = total;
  }
  for (auto& c : cdf) c /= total;
  cdf.back() = 1.0;
  return ZipfDistribution(std::move(cdf), theta);
}

double ZipfDistribution::Probability(uint64_t rank) const {
  BCAST_CHECK_GE(rank, 1u);
  BCAST_CHECK_LE(rank, n());
  const std::vector<double>& cdf = cdf_.cdf();
  const double hi = cdf[rank - 1];
  const double lo = rank >= 2 ? cdf[rank - 2] : 0.0;
  return hi - lo;
}

Result<RegionZipfGenerator> RegionZipfGenerator::Make(uint64_t access_range,
                                                      uint64_t region_size,
                                                      double theta) {
  if (access_range == 0) {
    return Status::InvalidArgument("RegionZipf: access_range must be positive");
  }
  if (region_size == 0) {
    return Status::InvalidArgument("RegionZipf: region_size must be positive");
  }
  if (theta < 0.0 || !std::isfinite(theta)) {
    return Status::InvalidArgument("RegionZipf: theta must be finite and >= 0");
  }
  const uint64_t num_regions = (access_range + region_size - 1) / region_size;

  // Weight region r (1-based) by (1/r)^theta, then spread the region's
  // probability uniformly over the pages it actually contains. A partial
  // final region gets the full region weight split over fewer pages; this
  // matches applying Zipf to regions as the paper describes.
  std::vector<double> weight(num_regions);
  double total = 0.0;
  for (uint64_t r = 0; r < num_regions; ++r) {
    weight[r] = std::pow(1.0 / static_cast<double>(r + 1), theta);
    total += weight[r];
  }

  std::vector<double> region_cdf(num_regions);
  std::vector<double> page_prob(num_regions);
  double acc = 0.0;
  for (uint64_t r = 0; r < num_regions; ++r) {
    const double p_region = weight[r] / total;
    acc += p_region;
    region_cdf[r] = acc;
    const uint64_t pages =
        std::min(region_size, access_range - r * region_size);
    page_prob[r] = p_region / static_cast<double>(pages);
  }
  region_cdf.back() = 1.0;
  return RegionZipfGenerator(access_range, region_size, std::move(region_cdf),
                             std::move(page_prob));
}

double RegionZipfGenerator::Probability(uint64_t page) const {
  if (page >= access_range_) return 0.0;
  return page_prob_by_region_[page / region_size_];
}

}  // namespace bcast
