// Differential tests of the sharded population engine against goldens
// recorded by the retired single-simulation runner: on uncoupled and
// fault-only configurations the engine must reproduce those reports
// *bit for bit*, for any shard count. Also covers the engine-only
// observability surfaces: population report extras and the
// stats-stream population fields.

#include "pop/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/multi_client.h"
#include "obs/run_report.h"
#include "obs/stats_stream.h"
#include "pop/client_store.h"
#include "pop/pop_params.h"
#include "tests/pop/population_test_util.h"

namespace bcast::pop {
namespace {

using pop_test::MakePopulation;
using pop_test::SimulationBytes;

// The checked-in report (SimulationBytes form) the single-simulation
// runner produced for this configuration before it was deleted.
std::string GoldenBytes(const std::string& name) {
  const std::string path = std::string(BCAST_BASELINE_DIR) +
                           "/legacy_population/" + name + ".json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Serialized report of the engine at shard count `k`. Population extras
// are deliberately *not* appended: the goldens predate them, and
// SimulationBytes already covers the engine-vs-engine case.
std::string EngineBytes(const MultiClientParams& params, PopParams pop,
                        uint64_t k) {
  pop.clients = params.clients.size();
  pop.shards = k;
  auto result = RunPopulationSimulation(params, pop);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return SimulationBytes(
      MakePopulationRunReport(params, *result, "pop_test", "test"));
}

void ExpectEngineMatchesGolden(const MultiClientParams& params,
                               const std::string& golden,
                               const PopParams& pop = PopParams{}) {
  const std::string expected = GoldenBytes(golden);
  for (uint64_t k : {1u, 2u, 5u}) {
    EXPECT_EQ(EngineBytes(params, pop, k), expected) << "shards=" << k;
  }
}

TEST(PopulationEngineTest, MatchesLegacyOnUncoupledConfig) {
  ExpectEngineMatchesGolden(MakePopulation(6), "uncoupled");
}

TEST(PopulationEngineTest, MatchesLegacyUnderChannelFaults) {
  MultiClientParams params = MakePopulation(6);
  params.fault.loss = 0.1;
  params.fault.burst_len = 3.0;
  params.fault.corrupt = 0.02;
  ExpectEngineMatchesGolden(params, "channel_faults");
}

TEST(PopulationEngineTest, MatchesLegacyUnderProcessFaults) {
  MultiClientParams params = MakePopulation(6);
  params.fault.loss = 0.05;
  params.fault.process.crash_every = 20000.0;
  params.fault.process.crash_down = 50.0;
  params.fault.process.crash_cold = true;
  params.fault.process.stall_every = 5000.0;
  params.fault.process.stall_len = 20.0;
  params.fault.process.slot_jitter = 0.3;
  ExpectEngineMatchesGolden(params, "process_faults");
}

TEST(PopulationEngineTest, MatchesLegacyUnderScheduleVersionBumps) {
  MultiClientParams params = MakePopulation(6);
  params.fault.process.version_every = 20000.0;
  ExpectEngineMatchesGolden(params, "version_bumps");
}

TEST(PopulationEngineTest, MatchesLegacyWithReceiverClasses) {
  // Class profiles scale each client's fault knobs; the golden was
  // recorded from the same stamped specs.
  MultiClientParams params = MakePopulation(6);
  params.fault.loss = 0.1;
  PopParams pop;
  pop.classes = *ParseClassProfiles("near:0.5:0.25:1,far:0.5:2:1");
  ApplyClassProfiles(pop.classes, &params.clients);
  ExpectEngineMatchesGolden(params, "receiver_classes", pop);
}

// Finds an extra by key; -1 when absent.
double ExtraOr(const obs::RunReport& report, const std::string& key,
               double fallback) {
  for (const auto& [k, v] : report.extra) {
    if (k == key) return v;
  }
  return fallback;
}

TEST(PopulationEngineTest, AppendsPopulationAndClassExtras) {
  MultiClientParams params = MakePopulation(8);
  params.fault.loss = 0.1;
  PopParams pop;
  pop.clients = 8;
  pop.shards = 2;
  pop.classes = *ParseClassProfiles("near:0.5:0.25,far:0.5:2");
  ApplyClassProfiles(pop.classes, &params.clients);
  auto result = RunPopulationSimulation(params, pop);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::RunReport report =
      MakePopulationRunReport(params, *result, "pop_test", "test");
  AppendPopulationExtras(pop, *result, &report);

  EXPECT_EQ(ExtraOr(report, "pop_clients", -1.0), 8.0);
  EXPECT_EQ(ExtraOr(report, "pop_shards", -1.0), 2.0);
  EXPECT_EQ(ExtraOr(report, "class0_near_clients", -1.0), 4.0);
  EXPECT_EQ(ExtraOr(report, "class1_far_clients", -1.0), 4.0);
  EXPECT_GT(ExtraOr(report, "pop_max_flow_time", -1.0), 0.0);
  EXPECT_GT(ExtraOr(report, "pop_stretch_max", -1.0), 0.0);
  // The worst class p99 is the max over the per-class p99 extras.
  const double worst = ExtraOr(report, "pop_worst_class_p99", -1.0);
  EXPECT_EQ(worst, std::max(ExtraOr(report, "class0_near_rt_p99", -1.0),
                            ExtraOr(report, "class1_far_rt_p99", -1.0)));
  // A "far" class that loses 2x as often cannot beat "near" on mean
  // response time.
  EXPECT_GE(ExtraOr(report, "class1_far_mean_rt", -1.0),
            ExtraOr(report, "class0_near_mean_rt", -1.0));
}

TEST(PopulationEngineTest, StatsStreamCarriesPopulationFields) {
  MultiClientParams params = MakePopulation(6);
  PopParams pop;
  pop.clients = 6;
  pop.shards = 3;
  std::ostringstream stream;
  obs::StatsWriter writer(&stream);
  SimObservers observers;
  observers.stats = &writer;
  observers.stats_interval = 2000.0;
  auto result = RunPopulationSimulation(params, pop, observers);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::istringstream lines(stream.str());
  std::string line;
  uint64_t samples = 0;
  obs::StatsSample last;
  while (std::getline(lines, line)) {
    auto sample = obs::ParseStatsLine(line);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString() << ": " << line;
    EXPECT_EQ(sample->pop_clients, 6u);
    EXPECT_EQ(sample->pop_shards, 3u);
    last = *sample;
    ++samples;
  }
  ASSERT_GT(samples, 1u);
  EXPECT_TRUE(last.final_sample);
  // The closing sample agrees with the run's own ledger.
  uint64_t requests = 0;
  for (const auto& m : result->per_client) requests += m.requests();
  EXPECT_EQ(last.requests, requests);
  EXPECT_EQ(last.events, result->events_dispatched);
}

TEST(PopulationEngineTest, StatsObservationDoesNotPerturbTheRun) {
  // The engine samples at barriers without scheduling DES events, so an
  // observed run reports the same simulation as an unobserved one. The
  // sole exception is `end_time`: the last surviving grid sample rounds
  // the clock up to its sample time.
  MultiClientParams params = MakePopulation(6);
  PopParams pop;
  pop.clients = 6;
  pop.shards = 2;
  auto unobserved = RunPopulationSimulation(params, pop);
  ASSERT_TRUE(unobserved.ok());
  std::ostringstream stream;
  obs::StatsWriter writer(&stream);
  SimObservers observers;
  observers.stats = &writer;
  observers.stats_interval = 1000.0;
  auto observed = RunPopulationSimulation(params, pop, observers);
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(observed->events_dispatched, unobserved->events_dispatched);
  auto normalized = [&](const MultiClientResult& result) {
    obs::RunReport report =
        MakePopulationRunReport(params, result, "pop_test", "test");
    report.end_time = 0.0;
    return SimulationBytes(std::move(report));
  };
  EXPECT_EQ(normalized(*observed), normalized(*unobserved));
}

}  // namespace
}  // namespace bcast::pop
