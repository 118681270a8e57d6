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
  uint64_t Next();

  /// Returns a double uniform in [0, 1) with 53 random bits.
  double NextDouble();

  /// Returns an integer uniform in [0, \p bound), bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Returns true with probability \p p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Returns an exponentially distributed value with mean \p mean > 0.
  double NextExponential(double mean);

 private:
  std::array<uint64_t, 4> s_;
};

}  // namespace bcast

#endif  // BCAST_COMMON_RNG_H_
