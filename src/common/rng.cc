#include "common/rng.h"

#include <cmath>

namespace bcast {
namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Rng::Reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
  // xoshiro256** requires a non-zero state; splitmix64 outputs four
  // consecutive zero words with negligible probability, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Rng Rng::Split(uint64_t stream) const {
  // Mix the current state with the stream id through splitmix64 so that
  // different streams of the same parent are statistically independent.
  uint64_t sm = s_[0] ^ Rotl(s_[1], 17) ^ (stream * 0x9e3779b97f4a7c15ULL);
  return Rng(SplitMix64(&sm) ^ stream);
}

uint64_t Rng::Next() {
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

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
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

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  BCAST_CHECK_GT(mean, 0.0);
  // 1 - U is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - NextDouble());
}

}  // namespace bcast
