// Shard-count invariance matrix (the engine's determinism contract):
// for each golden configuration, every shard count in {1, 2, 7} must
// produce the same report, byte for byte, after wall-clock
// normalization. Unlike the engine-vs-golden
// differential (engine_test.cc), this holds on *coupled* configurations
// too — pull and adaptation included — because the barrier replay order
// never mentions shards. The stats stream, which the coordinator samples
// from shard state between rounds, is held to the same contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_client.h"
#include "obs/run_report.h"
#include "obs/stats_stream.h"
#include "pop/client_store.h"
#include "pop/engine.h"
#include "pop/pop_params.h"
#include "tests/pop/population_test_util.h"

namespace bcast::pop {
namespace {

using pop_test::MakePopulation;
using pop_test::SimulationBytes;

// Nine clients so a seven-way split is a genuine partition (two shards
// own two clients, five own one).
constexpr uint64_t kClients = 9;

std::vector<std::pair<std::string, MultiClientParams>> GoldenConfigs() {
  std::vector<std::pair<std::string, MultiClientParams>> configs;
  {
    // Uncoupled: no cross-shard traffic at all; one round to completion.
    configs.emplace_back("pop_uncoupled", MakePopulation(kClients));
  }
  {
    // Fault-heavy but still uncoupled: loss bursts, corruption, crashes,
    // server stalls and jitter all resolve shard-locally.
    MultiClientParams params = MakePopulation(kClients);
    params.fault.loss = 0.1;
    params.fault.burst_len = 3.0;
    params.fault.corrupt = 0.02;
    params.fault.process.crash_every = 20000.0;
    params.fault.process.crash_down = 50.0;
    params.fault.process.stall_every = 5000.0;
    params.fault.process.stall_len = 20.0;
    configs.emplace_back("pop_faults", params);
  }
  {
    // Coupled: a shared pull server (uplink admission + queue) and the
    // adaptive controller splitting the slot budget — the paths where
    // the barrier protocol actually carries information between shards.
    MultiClientParams params = MakePopulation(kClients);
    params.fault.loss = 0.1;
    params.pull.pull_slots = 2;
    params.pull.threshold = 100.0;
    params.adapt.epoch_cycles = 4;
    configs.emplace_back("pop_adapt_pull", params);
  }
  return configs;
}

TEST(ShardMatrixTest, ReportsInvariantInShardCount) {
  for (const auto& [name, base] : GoldenConfigs()) {
    SCOPED_TRACE(name);
    std::string reference;
    for (uint64_t k : {1u, 2u, 7u}) {
      PopParams pop;
      pop.clients = kClients;
      pop.shards = k;
      auto result = RunPopulationSimulation(base, pop);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      obs::RunReport report =
          MakeRunReport(base, *result, name, "test");
      AppendPopulationExtras(pop, *result, &report);
      const std::string bytes = SimulationBytes(std::move(report));
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference) << name << " diverged at shards=" << k;
      }
    }
  }
}

TEST(ShardMatrixTest, StatsStreamInvariantInShardCount) {
  // Every sample line must match across K once the two fields that may
  // differ are cleared: the wall clock and the shard count itself.
  MultiClientParams base;
  for (const auto& [name, params] : GoldenConfigs()) {
    if (name == "pop_adapt_pull") base = params;
  }
  ASSERT_FALSE(base.clients.empty());
  std::vector<std::string> reference;
  for (uint64_t k : {1u, 2u, 7u}) {
    PopParams pop;
    pop.clients = kClients;
    pop.shards = k;
    std::ostringstream stream;
    obs::StatsWriter writer(&stream);
    SimObservers observers;
    observers.stats = &writer;
    observers.stats_interval = 1000.0;
    auto result = RunPopulationSimulation(base, pop, observers);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    std::vector<std::string> lines;
    std::istringstream in(stream.str());
    std::string line;
    while (std::getline(in, line)) {
      auto sample = obs::ParseStatsLine(line);
      ASSERT_TRUE(sample.ok()) << sample.status().ToString() << ": " << line;
      EXPECT_EQ(sample->pop_shards, k);
      sample->wall_seconds = 0.0;
      sample->pop_shards = 0;
      std::ostringstream normalized;
      obs::StatsWriter(&normalized).Write(*sample);
      lines.push_back(normalized.str());
    }
    if (reference.empty()) {
      // Enough samples that mid-run barriers are covered, not only the
      // closing record.
      ASSERT_GT(lines.size(), 3u);
      reference = lines;
      continue;
    }
    ASSERT_EQ(lines.size(), reference.size()) << "shards=" << k;
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i], reference[i]) << "shards=" << k << " line " << i;
    }
  }
}

TEST(ShardMatrixTest, ClassProfilesStayShardInvariant) {
  // Receiver classes cut across shard boundaries (class ranges and
  // shard ranges are different partitions of the id space); the fairness
  // extras must not notice how the population was split.
  MultiClientParams base = MakePopulation(kClients);
  base.fault.loss = 0.08;
  PopParams pop;
  pop.clients = kClients;
  pop.classes = *ParseClassProfiles("near:0.4:0.5,far:0.6:2");
  ApplyClassProfiles(pop.classes, &base.clients);
  std::string reference;
  for (uint64_t k : {1u, 3u, 7u}) {
    pop.shards = k;
    auto result = RunPopulationSimulation(base, pop);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    obs::RunReport report =
        MakeRunReport(base, *result, "pop_classes", "test");
    AppendPopulationExtras(pop, *result, &report);
    const std::string bytes = SimulationBytes(std::move(report));
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "shards=" << k;
    }
  }
}

}  // namespace
}  // namespace bcast::pop
