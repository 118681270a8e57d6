// Shard liveness: `Shard::unfinished()` reads the shard simulation's
// live-process count instead of scanning its clients. These tests pin
// that shortcut to its definition — the number of the shard's clients
// whose `finished()` is still false — at every round barrier, while the
// clients finish at different times, with and without pull transports,
// crash–restart faults and the schedule-version tick chain.
//
// Shard client state: each client's cache spans its own access range, not
// the server's database.

#include "pop/shard.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "broadcast/disk_config.h"
#include "broadcast/generator.h"
#include "common/rng.h"
#include "core/multi_client.h"
#include "pop/client_store.h"
#include "pull/hybrid.h"
#include "tests/pop/population_test_util.h"

namespace bcast::pop {
namespace {

using pop_test::MakePopulation;

uint64_t ScanUnfinished(const Shard& shard) {
  uint64_t n = 0;
  for (uint64_t c = shard.begin(); c < shard.end(); ++c) {
    if (!shard.world(c).client->finished()) ++n;
  }
  return n;
}

// Runs one shard over the whole population in rounds of 300 slots and
// compares unfinished() with the scan after every round.
void ExpectLiveCountMatchesScan(const MultiClientParams& params) {
  Result<DiskLayout> layout = MakeDeltaLayout(params.disk_sizes, params.delta);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  Result<BroadcastProgram> program = GenerateMultiDiskProgram(*layout);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::optional<pull::HybridProgram> hybrid;
  if (params.pull.Active()) {
    Result<pull::HybridProgram> built =
        pull::GenerateHybridProgram(*layout, params.pull.pull_slots);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    hybrid = std::move(*built);
  }
  const pull::HybridLayout no_pull;
  const pull::HybridLayout& hybrid_layout =
      hybrid.has_value() ? hybrid->layout : no_pull;
  const std::vector<bool> cold_pages;

  ShardShared shared;
  shared.params = &params;
  shared.layout = &*layout;
  shared.program = hybrid.has_value() ? &hybrid->program : &*program;
  shared.hybrid = &hybrid_layout;
  shared.cold_pages = &cold_pages;
  shared.pull_enabled = hybrid_layout.enabled();
  shared.service_interval =
      hybrid_layout.enabled()
          ? static_cast<double>(hybrid_layout.minor_len()) /
                static_cast<double>(hybrid_layout.pull_per_minor)
          : 0.0;

  const uint64_t n = params.clients.size();
  ClientStore store(n, /*shards=*/1, {}, /*need_pull=*/params.pull.Active(),
                    /*need_cold=*/false);
  Shard shard(0, 0, n, shared, &store);
  ASSERT_TRUE(shard.Build(Rng(params.seed)).ok());
  EXPECT_EQ(shard.unfinished(), n);

  bool saw_partial = false;
  Round round;
  while (shard.unfinished() > 0) {
    round.barrier += 300.0;
    ASSERT_LT(round.barrier, 1e8) << "clients never finished";
    shard.RunRound(round);
    const uint64_t scanned = ScanUnfinished(shard);
    ASSERT_EQ(shard.unfinished(), scanned) << "barrier " << round.barrier;
    saw_partial = saw_partial || (scanned > 0 && scanned < n);
  }
  EXPECT_TRUE(saw_partial) << "every client finished in the same round";
}

MultiClientParams SmallPopulation() {
  MultiClientParams params = MakePopulation(12);
  params.measured_requests = 150;
  return params;
}

TEST(ShardLivenessTest, UnfinishedMatchesScanUncoupled) {
  ExpectLiveCountMatchesScan(SmallPopulation());
}

TEST(ShardLivenessTest, UnfinishedMatchesScanWithPullTransports) {
  MultiClientParams params = SmallPopulation();
  params.pull.pull_slots = 2;
  params.pull.threshold = 20.0;
  ExpectLiveCountMatchesScan(params);
}

TEST(ShardLivenessTest, UnfinishedMatchesScanUnderProcessFaults) {
  MultiClientParams params = SmallPopulation();
  params.fault.loss = 0.05;
  params.fault.process.crash_every = 5000.0;
  params.fault.process.crash_down = 50.0;
  params.fault.process.version_every = 2000.0;
  ExpectLiveCountMatchesScan(params);
}

TEST(ShardClientStateTest, CachesSpanTheAccessRange) {
  // A 300-page database; clients touching all of it, one page, and
  // ranges in between.
  MultiClientParams params = SmallPopulation();
  const std::vector<uint64_t> ranges = {150, 1, 60, 300, 7};
  params.clients.resize(ranges.size());
  for (size_t c = 0; c < ranges.size(); ++c) {
    params.clients[c].access_range = ranges[c];
    params.clients[c].cache_size = 40;
  }
  Result<DiskLayout> layout = MakeDeltaLayout(params.disk_sizes, params.delta);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  Result<BroadcastProgram> program = GenerateMultiDiskProgram(*layout);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const pull::HybridLayout no_pull;
  const std::vector<bool> cold_pages;
  ShardShared shared;
  shared.params = &params;
  shared.layout = &*layout;
  shared.program = &*program;
  shared.hybrid = &no_pull;
  shared.cold_pages = &cold_pages;

  const uint64_t n = params.clients.size();
  ClientStore store(n, /*shards=*/1, {}, /*need_pull=*/false,
                    /*need_cold=*/false);
  Shard shard(0, 0, n, shared, &store);
  ASSERT_TRUE(shard.Build(Rng(params.seed)).ok());
  for (uint64_t c = 0; c < n; ++c) {
    const ClientWorld& world = shard.world(c);
    EXPECT_EQ(world.cache->num_pages(), ranges[c]) << "client " << c;
    EXPECT_EQ(world.mapping->num_pages(), params.ServerDbSize());
  }
  Round round;
  round.to_completion = true;
  shard.RunRound(round);
  EXPECT_EQ(shard.unfinished(), 0u);
  for (uint64_t c = 0; c < n; ++c) {
    const ClientMetrics& m = shard.world(c).client->metrics();
    EXPECT_EQ(m.requests(), params.measured_requests) << "client " << c;
  }
}

}  // namespace
}  // namespace bcast::pop
