#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace bcast {
namespace {

TEST(SplitMix64Test, KnownVector) {
  // Reference values for splitmix64 seeded with 0 (from Vigna's reference
  // implementation).
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(&state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(&state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64(&state), 0x06c45d188009454fULL);
}

// The first 64 outputs of each sampler for seed 42, recorded before the
// generator's hot methods moved into the header: every run's streams
// depend on these staying bit for bit the same. The exponential draws go
// through std::log, so they are those of a glibc-compatible libm.
TEST(RngTest, Seed42StreamsArePinned) {
  constexpr uint64_t kNext[64] = {
      0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL,
      0xae17533239e499a1ULL, 0xecb8ad4703b360a1ULL,
      0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL,
      0xc2e96e726e97647eULL, 0x9556615f775fbc3dULL,
      0xaeb53b340c103971ULL, 0x4a69db9873af8965ULL,
      0xcd0feda93006c6b6ULL, 0x52480865a4b42742ULL,
      0xb60dec3bf2d887cdULL, 0xe0b55a68b96677faULL,
      0x9de4159eda9cef95ULL, 0xd9f4b354ec3844d4ULL,
      0xb5215f43ed431a77ULL, 0xb5344cbe421f4f3aULL,
      0x17c5ad539dbb98d9ULL, 0x2dd4705aaba5de2bULL,
      0x6faa904a94c529bdULL, 0x9a1da25458817417ULL,
      0x5061938da99c7af0ULL, 0x7d3babc0d1e23440ULL,
      0x6624536f5ad584d4ULL, 0xca03e50015c044b8ULL,
      0xa293144f4f3bd3faULL, 0x3b38bd77133b0bdaULL,
      0x6a0da881492d3bfdULL, 0x9f6b51d30d502b3aULL,
      0xdcf83ab9a2b09168ULL, 0xf1dbbb3e7caf8512ULL,
      0xd06fa2c515268d8aULL, 0xbf3b601241d6460cULL,
      0xc8dac160a4cf65b7ULL, 0x0b79e57de69e68a1ULL,
      0x77ffe08aaffca9f2ULL, 0xf8dae1deeb08090bULL,
      0x896c10e1f50e7c45ULL, 0xb35f3c33364236adULL,
      0xcdb713a2484aba0dULL, 0xd17557ee842fc622ULL,
      0xe5fa6d9f51a65be7ULL, 0x202a8f768818eb71ULL,
      0x90a2b65696578132ULL, 0x8de344cfe2c7f797ULL,
      0xdb73c7b4d941a5a9ULL, 0xd3e1718bf28e10a9ULL,
      0x850b3263a0953dbbULL, 0x51466fd43f32a0ecULL,
      0x3130eb9b89d02158ULL, 0xa4d4d91162b2d044ULL,
      0x0752374ea697b934ULL, 0x5bb7058b670da327ULL,
      0x91be7d3d72cec5d7ULL, 0xc687f6037de59e9cULL,
      0x81dbd737ae287209ULL, 0x9eb080fc911ead60ULL,
      0xf3759893228a56ecULL, 0xf18b1a75d5c9a1abULL,
      0x3818ca12dc164711ULL, 0xc990d448a6cc309eULL,
  };
  constexpr double kNextDouble[64] = {
      0x1.5780b2e0c2ecp-4, 0x1.84136619b444ep-2, 0x1.5c2ea66473c93p-1,
      0x1.d9715a8e0766cp-1, 0x1.fbcdb8ffc5d8bp-1, 0x1.8a1b4a6202f2ap-1,
      0x1.7042a90ab4cbbp-1, 0x1.b3344e87d7ccp-1, 0x1.85d2dce4dd2ecp-1,
      0x1.2aacc2beeebf7p-1, 0x1.5d6a766818207p-1, 0x1.29a76e61cebe2p-2,
      0x1.9a1fdb52600d8p-1, 0x1.4920219692d08p-2, 0x1.6c1bd877e5b1p-1,
      0x1.c16ab4d172ccep-1, 0x1.3bc82b3db539dp-1, 0x1.b3e966a9d8708p-1,
      0x1.6a42be87da863p-1, 0x1.6a68997c843e9p-1, 0x1.7c5ad539dbb98p-4,
      0x1.6ea382d55d2ecp-3, 0x1.beaa412a5314ap-2, 0x1.343b44a8b102ep-1,
      0x1.41864e36a671ep-2, 0x1.f4eeaf034788cp-2, 0x1.98914dbd6b56p-2,
      0x1.9407ca002b808p-1, 0x1.4526289e9e77ap-1, 0x1.d9c5ebb899d84p-3,
      0x1.a836a20524b4ep-2, 0x1.3ed6a3a61aa05p-1, 0x1.b9f0757345612p-1,
      0x1.e3b7767cf95fp-1, 0x1.a0df458a2a4d1p-1, 0x1.7e76c02483ac8p-1,
      0x1.91b582c1499ecp-1, 0x1.6f3cafbcd3cdp-5, 0x1.dfff822abff2ap-2,
      0x1.f1b5c3bdd6101p-1, 0x1.12d821c3ea1cfp-1, 0x1.66be78666c846p-1,
      0x1.9b6e274490957p-1, 0x1.a2eaafdd085f8p-1, 0x1.cbf4db3ea34cbp-1,
      0x1.01547bb440c74p-3, 0x1.21456cad2cafp-1, 0x1.1bc6899fc58fep-1,
      0x1.b6e78f69b2834p-1, 0x1.a7c2e317e51c2p-1, 0x1.0a1664c7412a7p-1,
      0x1.4519bf50fcca8p-2, 0x1.89875cdc4e81p-3, 0x1.49a9b222c565ap-1,
      0x1.d48dd3a9a5eep-6, 0x1.6edc162d9c368p-2, 0x1.237cfa7ae59d8p-1,
      0x1.8d0fec06fbcb3p-1, 0x1.03b7ae6f5c50ep-1, 0x1.3d6101f9223d5p-1,
      0x1.e6eb31264514ap-1, 0x1.e31634ebab934p-1, 0x1.c0c65096e0b2p-3,
      0x1.9321a8914d986p-1,
  };
  constexpr uint64_t kBounded50[64] = {
      4u, 18u, 34u, 46u, 49u, 38u, 35u, 42u, 38u, 29u, 34u, 14u,
      40u, 16u, 35u, 43u, 30u, 42u, 35u, 35u, 4u, 8u, 21u, 30u,
      15u, 24u, 19u, 39u, 31u, 11u, 20u, 31u, 43u, 47u, 40u, 37u,
      39u, 2u, 23u, 48u, 26u, 35u, 40u, 40u, 44u, 6u, 28u, 27u,
      42u, 41u, 25u, 15u, 9u, 32u, 1u, 17u, 28u, 38u, 25u, 30u,
      47u, 47u, 10u, 39u,
  };
  constexpr double kExponential2[64] = {
      0x1.66c411e559569p-3, 0x1.e7d36873b4ac6p-1, 0x1.23badb3ab7799p+1,
      0x1.4b07fe7e3ae0ep+2, 0x1.337659eedecdap+3, 0x1.77f27d0c86ba3p+1,
      0x1.4533c5d213243p+1, 0x1.e5ad5839f46acp+1, 0x1.6ecfdfb35fb5bp+1,
      0x1.c04276d490534p+0, 0x1.25aa3f81ff3f6p+1, 0x1.5fb023e1af47ep-1,
      0x1.9d54a0958fc6p+1, 0x1.8d0bdd2c0b717p-1, 0x1.3de9b8dac1b96p+1,
      0x1.0d08b3ffb360cp+2, 0x1.eb0ee092d0648p+0, 0x1.e80bd2e234827p+1,
      0x1.3abbdb7881fd7p+1, 0x1.3afc9baf732f1p+1, 0x1.8f30b390fa503p-3,
      0x1.93fd06bff0414p-2, 0x1.2566b4fa12f88p+0, 0x1.d7b9e5bf4bc4p+0,
      0x1.81e7f8eceacf2p-1, 0x1.57f10f4e85b21p+0, 0x1.04aedfc231ac5p+0,
      0x1.8e7527f5e9d79p+1, 0x1.020d2af1b4a46p+1, 0x1.0d69efe45a8c8p-1,
      0x1.11de2318a7baap+0, 0x1.f318adca449a3p+0, 0x1.fd2ca58ae54e9p+1,
      0x1.72b1cfe4acf14p+2, 0x1.aedfd4e5b1a68p+1, 0x1.5fd65ece71e93p+1,
      0x1.8903089234ffcp+1, 0x1.77b9182d6b4a9p-4, 0x1.43d988c14587dp+0,
      0x1.ca150036fe5cp+2, 0x1.8a0a01937f96dp+0, 0x1.34ca829b6c1e9p+1,
      0x1.a0a219fe3879p+1, 0x1.b46fc2a671d68p+1, 0x1.24a3a5f589c2ep+2,
      0x1.12fe2cc83015bp-2, 0x1.aa2c5c2a9a093p+0, 0x1.9db18523117ecp+0,
      0x1.f251a45aef07fp+1, 0x1.c21e8e093a076p+1, 0x1.77797c85e4cf5p+0,
      0x1.8721d274f7c06p-1, 0x1.b501bfc076881p-2, 0x1.084fc71f107c3p+1,
      0x1.db626c8af719dp-5, 0x1.c638564ac5ae2p-1, 0x1.af4b9114c0b76p+0,
      0x1.7e726c89023a3p+1, 0x1.6a6181507fedfp+0, 0x1.ef3e0ad659645p+0,
      0x1.8212ef206f87p+2, 0x1.6fe008c8d3467p+2, 0x1.fa8fae5329084p-2,
      0x1.8c55c440986b7p+1,
  };
  Rng next(42), unit(42), bounded(42), exponential(42);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(next.Next(), kNext[i]) << "Next #" << i;
    EXPECT_EQ(unit.NextDouble(), kNextDouble[i]) << "NextDouble #" << i;
    EXPECT_EQ(bounded.NextBounded(50), kBounded50[i])
        << "NextBounded(50) #" << i;
    EXPECT_EQ(exponential.NextExponential(2.0), kExponential2[i])
        << "NextExponential(2.0) #" << i;
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ZeroSeedIsValid) {
  Rng rng(0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.Next());
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(RngTest, ReseedRestartsTheStream) {
  Rng rng(9);
  const uint64_t first = rng.Next();
  rng.Next();
  rng.Reseed(9);
  EXPECT_EQ(rng.Next(), first);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedOneAlwaysZero) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextBoundedRoughlyUniform) {
  Rng rng(13);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (uint64_t b = 0; b < bound; ++b) {
    EXPECT_NEAR(counts[b], n / static_cast<int>(bound), 600)
        << "bucket " << b;
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(21);
  const double p = 0.3;
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(p);
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(23);
  const double mean = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextExponential(mean);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, mean, 0.05);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(99);
  Rng s1 = parent.Split(1);
  Rng s2 = parent.Split(2);
  Rng s1_again = parent.Split(1);
  EXPECT_EQ(s1.Next(), s1_again.Next());
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (s1.Next() == s2.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitDoesNotAdvanceParent) {
  Rng a(4), b(4);
  (void)a.Split(7);
  EXPECT_EQ(a.Next(), b.Next());
}

}  // namespace
}  // namespace bcast
