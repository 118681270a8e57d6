#include "common/rng.h"

namespace bcast {

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

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

}  // namespace bcast
