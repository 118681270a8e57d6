// Shard-count invariance matrix (the engine's determinism contract):
// for each golden configuration, every shard count in {1, 2, 7} must
// produce the same report, byte for byte, after wall-clock
// normalization. Unlike the engine-vs-golden
// differential (engine_test.cc), this holds on *coupled* configurations
// too — pull and adaptation included — because the barrier replay order
// never mentions shards. The stats stream, which the coordinator samples
// from shard state between rounds, is held to the same contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_client.h"
#include "core/params.h"
#include "obs/run_report.h"
#include "obs/stats_stream.h"
#include "obs/trace.h"
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

// The golden configurations plus one with every process fault, version
// bumps at a cadence that starves no page included.
std::vector<std::pair<std::string, MultiClientParams>> LaneConfigs() {
  std::vector<std::pair<std::string, MultiClientParams>> configs =
      GoldenConfigs();
  MultiClientParams params = MakePopulation(kClients);
  params.fault.loss = 0.05;
  params.fault.process.crash_every = 6000.0;
  params.fault.process.crash_down = 40.0;
  params.fault.process.crash_cold = true;
  params.fault.process.stall_every = 3000.0;
  params.fault.process.stall_len = 20.0;
  params.fault.process.slot_jitter = 0.4;
  params.fault.process.version_every = 2500.0;
  configs.emplace_back("pop_process_faults", params);
  return configs;
}

TEST(ShardMatrixTest, LanesMatchOneClientPerShard) {
  // One shard runs its clients lane by lane; K = N gives each client a
  // shard of its own. The two must agree byte for byte, event count
  // included.
  for (const auto& [name, params] : LaneConfigs()) {
    SCOPED_TRACE(name);
    std::string reference;
    uint64_t reference_events = 0;
    for (uint64_t k : {uint64_t{1}, kClients}) {
      PopParams pop;
      pop.clients = kClients;
      pop.shards = k;
      auto result = RunPopulationSimulation(params, pop);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      obs::RunReport report = MakeRunReport(params, *result, name, "test");
      AppendPopulationExtras(pop, *result, &report);
      const std::string bytes = SimulationBytes(std::move(report));
      if (k == 1) {
        reference = bytes;
        reference_events = result->events_dispatched;
        if (name == "pop_process_faults") {
          EXPECT_GT(result->faults.version_bumps, 0u);
          EXPECT_GT(result->faults.crashes, 0u);
        }
      } else {
        EXPECT_EQ(bytes, reference);
        EXPECT_EQ(result->events_dispatched, reference_events);
      }
    }
  }
}

TEST(ShardMatrixTest, MidSlotWaitsMissThePullSlot) {
  // Clients crowding a few pages, with short think times and every miss
  // requesting a pull: waits often begin inside a pull slot of their
  // page, after the round that delivers it started. Such a wait missed
  // the slot's start and does not hear it, in one shard of every client
  // or in a shard per client alike. A lane that heard those mirrors would
  // still agree with one-client shards, which is why the figures are
  // pinned here.
  SimParams crowd;
  crowd.disk_sizes = {10, 30, 60};
  crowd.access_range = 40;
  crowd.region_size = 5;
  crowd.cache_size = 4;
  crowd.think_time = 0.5;
  crowd.measured_requests = 300;
  crowd.pull.pull_slots = 2;
  crowd.pull.threshold = 0.0;
  const MultiClientParams params = PopulationFromSimParams(crowd, 20);
  for (uint64_t k : {1u, 20u}) {
    PopParams pop;
    pop.clients = 20;
    pop.shards = k;
    auto result = RunPopulationSimulation(params, pop);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->events_dispatched, 25859u) << "shards=" << k;
    EXPECT_EQ(result->pull_stats.pull_deliveries, 1079u) << "shards=" << k;
    EXPECT_EQ(result->end_time, 23912.0) << "shards=" << k;
  }
}

// A run's report and stats lines at \p shards, with the fields that may
// differ across shard counts cleared: wall clock and `pop_shards`.
std::pair<std::string, std::vector<std::string>> ObservedRun(
    const MultiClientParams& params, uint64_t shards, double interval) {
  std::ostringstream stream;
  obs::StatsWriter writer(&stream);
  SimObservers observers;
  observers.stats = &writer;
  observers.stats_interval = interval;
  PopParams pop;
  pop.clients = params.clients.size();
  pop.shards = shards;
  auto result = RunPopulationSimulation(params, pop, observers);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  obs::RunReport report = MakeRunReport(params, *result, "pop_test", "test");
  AppendPopulationExtras(pop, *result, &report);
  std::vector<std::string> lines;
  std::istringstream in(stream.str());
  std::string line;
  while (std::getline(in, line)) {
    auto sample = obs::ParseStatsLine(line);
    EXPECT_TRUE(sample.ok()) << sample.status().ToString() << ": " << line;
    if (!sample.ok()) continue;
    sample->wall_seconds = 0.0;
    sample->pop_shards = 0;
    std::ostringstream normalized;
    obs::StatsWriter(&normalized).Write(*sample);
    lines.push_back(normalized.str());
  }
  return {SimulationBytes(std::move(report)), std::move(lines)};
}

TEST(ShardMatrixTest, FractionalStatsBarriersKeepPullRunsInvariant) {
  // Stats barriers off the integer grid fall inside pull slots. The next
  // pull-slot barrier must still be the next slot start, and a stall
  // query from the start of a slot in flight at a round start must stay
  // above the shard's fault floor. Crashes and stalls each exercise one.
  SimParams crowd;
  crowd.disk_sizes = {10, 30, 60};
  crowd.access_range = 40;
  crowd.cache_size = 4;
  crowd.think_time = 0.5;
  crowd.measured_requests = 200;
  crowd.pull.pull_slots = 2;
  crowd.pull.threshold = 0.0;
  crowd.fault.loss = 0.1;
  SimParams crashes = crowd;
  crashes.fault.process.crash_every = 3000.0;
  crashes.fault.process.crash_down = 20.0;
  SimParams stalls = crowd;
  stalls.fault.process.stall_every = 300.0;
  stalls.fault.process.stall_len = 5.0;
  for (const auto& [name, config] :
       {std::pair{"crashes", crashes}, std::pair{"stalls", stalls}}) {
    SCOPED_TRACE(name);
    const MultiClientParams params = PopulationFromSimParams(config, 20);
    const auto one = ObservedRun(params, 1, 7.25);
    const auto twenty = ObservedRun(params, 20, 7.25);
    ASSERT_GT(one.second.size(), 3u);
    EXPECT_EQ(twenty.first, one.first);
    EXPECT_EQ(twenty.second, one.second);
  }
}

// The trace records of a run at \p sample, sorted: the multiset, since
// records of different clients interleave differently per layout.
std::vector<std::string> SortedTrace(const MultiClientParams& params,
                                     uint64_t shards, double sample) {
  std::ostringstream out;
  obs::TraceSink sink(&out, sample, obs::TraceFormat::kJsonl, params.seed);
  SimObservers observers;
  observers.trace = &sink;
  PopParams pop;
  pop.clients = params.clients.size();
  pop.shards = shards;
  auto result = RunPopulationSimulation(params, pop, observers);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  sink.Flush();
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(ShardMatrixTest, FullTraceInvariantInShardCount) {
  for (const auto& [name, params] : GoldenConfigs()) {
    SCOPED_TRACE(name);
    const std::vector<std::string> lanes = SortedTrace(params, 1, 1.0);
    EXPECT_GT(lanes.size(), kClients * params.measured_requests);
    EXPECT_EQ(SortedTrace(params, kClients, 1.0), lanes);
  }
}

TEST(ShardMatrixTest, SampledTraceInvariantInShardCount) {
  // The sampling coin is keyed by (seed, client, request ordinal), so
  // neither thread timing nor lane order changes the sampled subset.
  for (const auto& [name, params] : GoldenConfigs()) {
    SCOPED_TRACE(name);
    const std::vector<std::string> one = SortedTrace(params, 1, 0.3);
    EXPECT_GT(one.size(), 0u);
    EXPECT_EQ(SortedTrace(params, 3, 0.3), one);
  }
}

}  // namespace
}  // namespace bcast::pop
