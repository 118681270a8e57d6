/// \file zipf.h
/// \brief Zipf-distributed sampling, including the paper's region scheme.
///
/// The paper (Section 4.1) draws client requests from a Zipf distribution
/// with parameter theta applied to *regions* of `RegionSize` pages: the
/// probability of accessing region r (1-based) is proportional to
/// (1/r)^theta, and pages within a region are equiprobable. Region 1 holds
/// the hottest pages. This file implements both the plain Zipf distribution
/// and the region variant. Both sample by inverting a CDF through a
/// `CdfGuide`, which finds the index in O(1) expected time.

#ifndef BCAST_COMMON_ZIPF_H_
#define BCAST_COMMON_ZIPF_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace bcast {

/// \brief A CDF with a guide table for inversion: the "indexed search" of
/// Chen & Asau (1974).
///
/// The table has M entries, M the power of two >= the CDF's length, and
/// entry k is the first index i with `cdf[i] >= k / M`. For u in [0, 1),
/// k = floor(u * M) is exact (M is a power of two), so k / M <= u and that
/// entry is at or before the first index with `cdf[i] >= u`. `Find` starts
/// there and steps forward while `cdf[i] < u`: it returns the same index
/// `std::lower_bound` does, after at most one step on average. Entries are
/// 16-bit, because every population client holds its own table; a CDF
/// longer than 65536 stores each entry rounded down to a multiple of
/// 2^shift, which only lengthens the forward scan.
class CdfGuide {
 public:
  /// \p cdf holds the running sums of a distribution with its last entry
  /// set to exactly 1 (an earlier sum may have rounded a little above 1).
  explicit CdfGuide(std::vector<double> cdf);

  /// The CDF.
  const std::vector<double>& cdf() const { return cdf_; }

  /// Index of the first CDF entry >= \p u, for u in [0, 1). Such an
  /// entry always exists: the last one is 1.
  uint64_t Find(double u) const {
    uint64_t i = uint64_t{guide_[static_cast<size_t>(u * scale_)]} << shift_;
    while (cdf_[i] < u) ++i;
    return i;
  }

 private:
  std::vector<double> cdf_;
  std::vector<uint16_t> guide_;  // M entries, each index >> shift_
  double scale_;                 // M
  int shift_;
};

/// \brief A Zipf(theta) distribution over ranks 1..n.
///
/// P(rank = i) = (1/i)^theta / H where H = sum_j (1/j)^theta.
/// theta = 0 degenerates to uniform; larger theta is more skewed.
/// Sampling takes O(1) expected time through a guide table (`CdfGuide`).
class ZipfDistribution {
 public:
  /// Creates a distribution over ranks 1..\p n with skew \p theta.
  /// Fails if n == 0 or theta < 0.
  static Result<ZipfDistribution> Make(uint64_t n, double theta);

  /// Number of ranks.
  uint64_t n() const { return static_cast<uint64_t>(cdf_.cdf().size()); }

  /// Skew parameter.
  double theta() const { return theta_; }

  /// Probability of \p rank (1-based, in [1, n]).
  double Probability(uint64_t rank) const;

  /// Draws a rank in [1, n] from \p rng.
  uint64_t Sample(Rng* rng) const { return cdf_.Find(rng->NextDouble()) + 1; }

 private:
  ZipfDistribution(std::vector<double> cdf, double theta)
      : cdf_(std::move(cdf)), theta_(theta) {}

  CdfGuide cdf_;  // cdf()[i] = P(rank <= i + 1); back() == 1.
  double theta_;
};

/// \brief The paper's page-access distribution: Zipf over fixed-size
/// regions of the logical page range, uniform within a region.
///
/// Logical page 0 is the hottest. With `access_range` pages and regions of
/// `region_size` pages, there are `access_range / region_size` regions
/// (the paper uses 1000 / 50 = 20; a final partial region is allowed and
/// weighted by its actual page count).
class RegionZipfGenerator {
 public:
  /// Creates a generator over logical pages [0, \p access_range).
  /// Fails if access_range == 0, region_size == 0, or theta < 0.
  static Result<RegionZipfGenerator> Make(uint64_t access_range,
                                          uint64_t region_size, double theta);

  /// Number of logical pages that have non-zero probability.
  uint64_t access_range() const { return access_range_; }

  /// Pages per region (last region may be smaller).
  uint64_t region_size() const { return region_size_; }

  /// Number of regions.
  uint64_t num_regions() const {
    return static_cast<uint64_t>(region_cdf_.cdf().size());
  }

  /// Exact access probability of logical \p page; 0 outside the range.
  double Probability(uint64_t page) const;

  /// Draws a logical page in [0, access_range) from \p rng.
  uint64_t Sample(Rng* rng) const {
    const uint64_t region = region_cdf_.Find(rng->NextDouble());
    const uint64_t offset = rng->NextBounded(PagesInRegion(region));
    return region * region_size_ + offset;
  }

 private:
  RegionZipfGenerator(uint64_t access_range, uint64_t region_size,
                      std::vector<double> region_cdf,
                      std::vector<double> page_prob_by_region)
      : access_range_(access_range),
        region_size_(region_size),
        region_cdf_(std::move(region_cdf)),
        page_prob_by_region_(std::move(page_prob_by_region)) {}

  uint64_t PagesInRegion(uint64_t region) const {
    return std::min(region_size_, access_range_ - region * region_size_);
  }

  uint64_t access_range_;
  uint64_t region_size_;
  CdfGuide region_cdf_;                      // cumulative region probability
  std::vector<double> page_prob_by_region_;  // per-page probability in region
};

}  // namespace bcast

#endif  // BCAST_COMMON_ZIPF_H_
