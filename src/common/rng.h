/// \file rng.h
/// \brief Deterministic pseudo-random number generation.
///
/// Every stochastic component of the library draws from an explicit `Rng`
/// seeded by the caller, so any experiment is exactly reproducible from its
/// configuration. The engine is xoshiro256** (Blackman & Vigna), seeded via
/// splitmix64; both are implemented here so results do not depend on the
/// standard library's unspecified distribution algorithms.

#ifndef BCAST_COMMON_RNG_H_
#define BCAST_COMMON_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace bcast {

/// \brief One step of the splitmix64 generator; also used to derive
/// independent sub-stream seeds from a master seed.
///
/// \param state In/out: the 64-bit generator state, advanced by the call.
/// \return The next 64-bit output.
uint64_t SplitMix64(uint64_t* state);

/// \brief A small, fast, deterministic random number generator
/// (xoshiro256**) with convenience sampling methods.
///
/// Satisfies `std::uniform_random_bit_generator`, so it can also be used
/// with standard distributions, though the built-in samplers below are
/// preferred for cross-platform determinism.
class Rng {
 public:
  using result_type = uint64_t;

  /// Constructs a generator from \p seed. Any seed (including 0) is valid;
  /// the state is expanded with splitmix64 and can never become all-zero.
  explicit Rng(uint64_t seed = 0) { Reseed(seed); }

  /// Re-initializes the state from \p seed.
  void Reseed(uint64_t seed);

  /// Returns a generator for an independent sub-stream. Deriving named
  /// streams (e.g. one for access generation, one for noise swaps) keeps
  /// experiments comparable when only one factor changes.
  ///
  /// \param stream Distinguishes sub-streams of the same parent.
  Rng Split(uint64_t stream) const;

  /// \name std::uniform_random_bit_generator interface.
  /// @{
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }
  result_type operator()() { return Next(); }
  /// @}

  /// Returns the next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Returns a double uniform in [0, 1) with 53 random bits.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Returns an integer uniform in [0, \p bound), bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound) {
    BCAST_CHECK_GT(bound, 0u);
    // Lemire (2019): multiply-shift with rejection of the biased region.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Returns true with probability \p p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Returns an exponentially distributed value with mean \p mean > 0.
  double NextExponential(double mean) {
    BCAST_CHECK_GT(mean, 0.0);
    // 1 - U is in (0, 1], so the log is finite.
    return -mean * std::log(1.0 - NextDouble());
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<uint64_t, 4> s_;
};

}  // namespace bcast

#endif  // BCAST_COMMON_RNG_H_
