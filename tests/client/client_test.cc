#include "client/client.h"

#include <gtest/gtest.h>

#include "broadcast/generator.h"
#include "cache/lru.h"
#include "core/simulator.h"

namespace bcast {
namespace {

// A small world: 20-page flat broadcast, client accesses the first 10.
struct SmallWorld {
  SmallWorld(uint64_t cache_size, uint64_t measured, double think = 2.0)
      : program(*GenerateFlatProgram(20)),
        mapping(Mapping::Identity(20)),
        gen(*AccessGenerator::Make(10, 5, 0.95, think,
                                   ThinkTimeKind::kFixed, Rng(3))),
        catalog(&gen, &program, &mapping),
        cache(cache_size, 20, &catalog),
        channel(&sim, &program),
        client(&sim, &channel, &cache, &gen, &mapping,
               ClientRunConfig{measured, 100000}) {}

  des::Simulation sim;
  BroadcastProgram program;
  Mapping mapping;
  AccessGenerator gen;
  SimCatalog catalog;
  LruCache cache;
  BroadcastChannel channel;
  Client client;
};

TEST(ClientTest, CompletesRequestedMeasurements) {
  SmallWorld world(1, 500);
  world.sim.Spawn(world.client.Run());
  world.sim.Run();
  EXPECT_TRUE(world.client.finished());
  EXPECT_EQ(world.client.metrics().requests(), 500u);
}

TEST(ClientTest, NoCacheMeansNoHits) {
  // Capacity 1 still caches exactly one page, so back-to-back repeats can
  // hit; with a hot first region those exist but are rare. The paper
  // calls capacity 1 "no caching" — hits should be a small minority.
  SmallWorld world(1, 2000);
  world.sim.Spawn(world.client.Run());
  world.sim.Run();
  EXPECT_LT(world.client.metrics().hit_rate(), 0.2);
}

TEST(ClientTest, FlatDiskResponseNearHalfPeriod) {
  SmallWorld world(1, 5000);
  world.sim.Spawn(world.client.Run());
  world.sim.Run();
  // Flat 20-page disk: expected miss delay ~ 10-11 broadcast units.
  const ClientMetrics& m = world.client.metrics();
  const double miss_rate = 1.0 - m.hit_rate();
  EXPECT_NEAR(m.mean_response_time(), 10.5 * miss_rate, 1.5);
}

TEST(ClientTest, WarmupFillsCacheBeforeMeasuring) {
  SmallWorld world(5, 100);
  world.sim.Spawn(world.client.Run());
  world.sim.Run();
  EXPECT_EQ(world.cache.size(), 5u);
  EXPECT_GE(world.client.warmup_requests(), 5u);
}

TEST(ClientTest, WarmupCapRespectedWhenCacheCannotFill) {
  // Capacity 15 > access range 10: the cache can never fill; warm-up must
  // stop at the fill target min(capacity, access_range).
  SmallWorld world(15, 100);
  world.sim.Spawn(world.client.Run());
  world.sim.Run();
  EXPECT_TRUE(world.client.finished());
  EXPECT_EQ(world.cache.size(), 10u);
}

TEST(ClientTest, AllAccessRangeCachedMeansAllHits) {
  // Cache holds the whole access range: after warm-up every request hits.
  SmallWorld world(10, 1000);
  world.sim.Spawn(world.client.Run());
  world.sim.Run();
  EXPECT_DOUBLE_EQ(world.client.metrics().hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(world.client.metrics().mean_response_time(), 0.0);
}

TEST(ClientTest, HitsPlusMissesEqualRequests) {
  SmallWorld world(3, 700);
  world.sim.Spawn(world.client.Run());
  world.sim.Run();
  const ClientMetrics& m = world.client.metrics();
  EXPECT_EQ(m.cache_hits() + m.misses(), m.requests());
  uint64_t served = 0;
  for (uint64_t c : m.served_per_disk()) served += c;
  EXPECT_EQ(served, m.misses());
}

TEST(ClientTest, ThinkTimePacesRequests) {
  // With all hits (cache == access range) and think time T, the run lasts
  // ~measured * T units after warm-up.
  SmallWorld world(10, 1000, /*think=*/4.0);
  world.sim.Spawn(world.client.Run());
  world.sim.Run();
  // End time ≈ warmup time + 1000 * 4; check the dominant term.
  EXPECT_GT(world.sim.Now(), 4000.0);
}

TEST(ClientTest, TuningEqualsWaitWithoutScheduleKnowledge) {
  SmallWorld world(1, 2000);
  world.sim.Spawn(world.client.Run());
  world.sim.Run();
  const ClientMetrics& m = world.client.metrics();
  // Ignorant client: radio-on time == response time on every request.
  EXPECT_DOUBLE_EQ(m.tuning_time().mean(), m.mean_response_time());
}

TEST(ClientTest, KnownScheduleTunesOneSlotPerMiss) {
  SmallWorld world(1, 2000);
  // Rebuild the client with schedule knowledge.
  Client knowing(&world.sim, &world.channel, &world.cache, &world.gen,
                 &world.mapping, ClientRunConfig{2000, 100000, true});
  world.sim.Spawn(knowing.Run());
  world.sim.Run();
  const ClientMetrics& m = knowing.metrics();
  // Tuning = 1 slot per miss, 0 per hit.
  const double expected = 1.0 - m.hit_rate();
  EXPECT_NEAR(m.tuning_time().mean(), expected, 1e-9);
  // Response time is unaffected by schedule knowledge.
  EXPECT_GT(m.mean_response_time(), 1.0);
}

TEST(ClientDeathTest, MappingSmallerThanAccessRangeDies) {
  des::Simulation sim;
  auto program = GenerateFlatProgram(5);
  ASSERT_TRUE(program.ok());
  Mapping mapping = Mapping::Identity(5);
  auto gen = AccessGenerator::Make(10, 5, 0.95, 2.0, ThinkTimeKind::kFixed,
                                   Rng(3));
  ASSERT_TRUE(gen.ok());
  SimCatalog catalog(&*gen, &*program, &mapping);
  LruCache cache(2, 10, &catalog);
  BroadcastChannel channel(&sim, &*program);
  EXPECT_DEATH(Client(&sim, &channel, &cache, &*gen, &mapping,
                      ClientRunConfig{10, 100}),
               "outside the broadcast");
}

TEST(ClientDeathTest, CacheSmallerThanAccessRangeDies) {
  des::Simulation sim;
  auto program = GenerateFlatProgram(20);
  ASSERT_TRUE(program.ok());
  Mapping mapping = Mapping::Identity(20);
  auto gen = AccessGenerator::Make(10, 5, 0.95, 2.0, ThinkTimeKind::kFixed,
                                   Rng(3));
  ASSERT_TRUE(gen.ok());
  SimCatalog catalog(&*gen, &*program, &mapping);
  LruCache cache(2, 9, &catalog);
  BroadcastChannel channel(&sim, &*program);
  EXPECT_DEATH(Client(&sim, &channel, &cache, &*gen, &mapping,
                      ClientRunConfig{10, 100}),
               "outside its cache's page space");
}

}  // namespace
}  // namespace bcast
