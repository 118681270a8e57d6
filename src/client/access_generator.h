/// \file access_generator.h
/// \brief The client's request stream: region-Zipf page selection plus a
/// think-time model (paper Table 2 / Section 4.1).

#ifndef BCAST_CLIENT_ACCESS_GENERATOR_H_
#define BCAST_CLIENT_ACCESS_GENERATOR_H_

#include <cstdint>

#include "broadcast/types.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/zipf.h"

namespace bcast {

/// \brief How the ThinkTime pause between requests is drawn.
enum class ThinkTimeKind {
  kFixed,        ///< Every pause is exactly `think_time` (the paper's model).
  kExponential,  ///< Exponential with mean `think_time` (extension; breaks
                 ///< the lock-step alignment of requests to slot starts).
};

/// \brief Generates the client's logical page requests and think times.
///
/// Logical pages [0, access_range) are requested with region-Zipf
/// probabilities (page 0 hottest); pages outside the range have zero
/// probability (they model the rest of a larger broadcast serving other
/// clients).
class AccessGenerator {
 public:
  /// \param access_range Pages the client ever requests.
  /// \param region_size  Pages per Zipf region.
  /// \param theta        Zipf skew (0 = uniform).
  /// \param think_time   Mean pause between requests, in broadcast units.
  /// \param kind         Think-time distribution.
  /// \param rng          Request-stream RNG (owned; pass a dedicated
  ///                     sub-stream so other randomness does not disturb
  ///                     the request sequence).
  static Result<AccessGenerator> Make(uint64_t access_range,
                                      uint64_t region_size, double theta,
                                      double think_time, ThinkTimeKind kind,
                                      Rng rng);

  /// Draws the next logical page to request.
  PageId NextPage() {
    return static_cast<PageId>(zipf_.Sample(&rng_));
  }

  /// Draws the next think-time pause.
  double NextThinkTime();

  /// Exact access probability of logical \p page (0 outside the range).
  double Probability(PageId page) const {
    return zipf_.Probability(page);
  }

  /// Number of pages with non-zero probability.
  uint64_t access_range() const { return zipf_.access_range(); }

 private:
  AccessGenerator(RegionZipfGenerator zipf, double think_time,
                  ThinkTimeKind kind, Rng rng)
      : zipf_(std::move(zipf)),
        think_time_(think_time),
        kind_(kind),
        rng_(rng) {}

  RegionZipfGenerator zipf_;
  double think_time_;
  ThinkTimeKind kind_;
  Rng rng_;
};

}  // namespace bcast

#endif  // BCAST_CLIENT_ACCESS_GENERATOR_H_
