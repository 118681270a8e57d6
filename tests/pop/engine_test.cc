// Differential tests of the sharded population engine against goldens
// recorded by the retired single-simulation runner: on uncoupled and
// fault-only configurations the engine must reproduce those reports
// *bit for bit*, for any shard count. (The goldens were re-recorded once
// for the four fields that runner left at 0: warm-up requests and the
// program geometry.) Also covers the engine-only
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

#include "broadcast/generator.h"
#include "core/multi_client.h"
#include "core/simulator.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "obs/stats_stream.h"
#include "obs/timeline.h"
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
      MakeRunReport(params, *result, "pop_test", "test"));
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
      MakeRunReport(params, *result, "pop_test", "test");
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
  auto normalized = [&](const SimResult& result) {
    obs::RunReport report =
        MakeRunReport(params, result, "pop_test", "test");
    report.end_time = 0.0;
    return SimulationBytes(std::move(report));
  };
  EXPECT_EQ(normalized(*observed), normalized(*unobserved));
}

// The engine fills the warm-up count and the program geometry the legacy
// runner left at 0; both are checked against values derived outside the
// report builder: the stats stream's final record and the schedule build.
TEST(PopulationEngineTest, ReportCarriesWarmupAndProgramGeometry) {
  MultiClientParams params = MakePopulation(6);
  PopParams pop;
  pop.clients = 6;
  pop.shards = 2;
  std::ostringstream stream;
  obs::StatsWriter writer(&stream);
  SimObservers observers;
  observers.stats = &writer;
  auto result = RunPopulationSimulation(params, pop, observers);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const obs::RunReport report =
      MakeRunReport(params, *result, "pop_test", "test");

  std::istringstream lines(stream.str());
  std::string line;
  obs::StatsSample last;
  while (std::getline(lines, line)) {
    auto sample = obs::ParseStatsLine(line);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    last = *sample;
  }
  ASSERT_TRUE(last.final_sample);
  EXPECT_GT(report.warmup_requests, 0u);
  EXPECT_EQ(report.warmup_requests, last.warmup_requests);

  Result<ServerSchedule> schedule = BuildSchedule(params);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  EXPECT_GT(report.period, 0u);
  EXPECT_EQ(report.period, schedule->program.period());
  EXPECT_EQ(report.empty_slots, schedule->program.EmptySlots());
  EXPECT_EQ(report.perturbed_pages, 0u);  // no noise
}

TEST(PopulationEngineTest, NoiseMovesPagesOfEveryClient) {
  MultiClientParams params = MakePopulation(3);
  for (ClientSpec& spec : params.clients) spec.noise_percent = 30.0;
  auto three = RunPopulationSimulation(params, PopParams{});
  params.clients.resize(1);
  auto one = RunPopulationSimulation(params, PopParams{});
  ASSERT_TRUE(three.ok());
  ASSERT_TRUE(one.ok());
  // Each client draws its own noise; client 0's draw does not depend on
  // the others, so the population moves at least its pages.
  EXPECT_GT(one->perturbed_pages, 0u);
  EXPECT_GT(three->perturbed_pages, one->perturbed_pages);
}

// The engine records the finished run into the registry, so a population
// report's `metrics` block agrees with the report's own fields.
TEST(PopulationEngineTest, RecordsTheRunIntoTheRegistry) {
  MultiClientParams params = MakePopulation(4);
  params.fault.loss = 0.1;
  PopParams pop;
  pop.clients = 4;
  obs::MetricsRegistry registry;
  SimObservers observers;
  observers.registry = &registry;
  auto result = RunPopulationSimulation(params, pop, observers);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::RunReport report = MakeRunReport(params, *result, "pop_test", "test");
  report.metrics = registry.TakeSnapshot();

  auto counter = [&](const std::string& name) -> int64_t {
    for (const auto& [key, value] : report.metrics.counters) {
      if (key == name) return static_cast<int64_t>(value);
    }
    return -1;
  };
  EXPECT_EQ(counter("sim/requests"),
            static_cast<int64_t>(report.requests));
  EXPECT_EQ(counter("sim/warmup_requests"),
            static_cast<int64_t>(report.warmup_requests));
  EXPECT_EQ(counter("sim/events"),
            static_cast<int64_t>(report.events_dispatched));
  EXPECT_EQ(static_cast<double>(counter("fault/attempts")),
            ExtraOr(report, "fault_attempts", -1.0));
}

// Validate admits --adapt_reopt for a population of one (single mode runs
// it), but the engine has no demand monitor: it refuses the run itself.
TEST(PopulationEngineTest, RejectsReoptEvenForAPopulationOfOne) {
  MultiClientParams params = MakePopulation(1);
  params.adapt.epoch_cycles = 2;
  params.adapt.reopt = true;
  ASSERT_TRUE(params.Validate().ok());
  PopParams pop;
  pop.clients = 1;
  auto result = RunPopulationSimulation(params, pop);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("--adapt_reopt"),
            std::string::npos);
}

// Under rbo, the engine's controller relabels the bit-reversal seat
// program on every push-only rebuild, as single mode does; it must not
// regenerate a Delta-chunked multi-disk program over the same layout.
// Every epoch tick is `epoch_cycles` periods of the program on the air
// after the previous one, so the controller's epoch instants on the
// timeline give away the period of every program the engine switched to.
TEST(PopulationEngineTest, RboAdaptationKeepsTheSeatProgram) {
  MultiClientParams params = MakePopulation(3);
  params.optimizer = "rbo";
  params.fault.loss = 0.1;
  params.adapt.epoch_cycles = 4;
  Result<ServerSchedule> schedule = BuildSchedule(params);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const double seat_period = static_cast<double>(schedule->program.period());
  Result<BroadcastProgram> chunked =
      GenerateMultiDiskProgram(schedule->layout);
  ASSERT_TRUE(chunked.ok());
  ASSERT_NE(chunked->period(), schedule->program.period())
      << "the geometry cannot tell the two programs apart";

  std::ostringstream timeline_bytes;
  obs::TimelineWriter timeline(&timeline_bytes);
  SimObservers observers;
  observers.timeline = &timeline;
  PopParams pop;
  pop.clients = 3;
  auto result = RunPopulationSimulation(params, pop, observers);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  timeline.Close();
  ASSERT_GT(result->adapt_stats.rebuilds, 0u);

  const std::string text = timeline_bytes.str();
  std::vector<double> ticks;
  for (size_t at = text.find("\"name\": \"epoch\"");
       at != std::string::npos;
       at = text.find("\"name\": \"epoch\"", at + 1)) {
    const size_t ts = text.find("\"ts\": ", at);
    ASSERT_NE(ts, std::string::npos);
    ticks.push_back(std::stod(text.substr(ts + 6)));
  }
  ASSERT_EQ(ticks.size(), result->adapt_stats.epochs);
  ASSERT_GE(ticks.size(), 2u);
  EXPECT_DOUBLE_EQ(ticks[0], 4 * seat_period);
  for (size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_DOUBLE_EQ(ticks[i] - ticks[i - 1], 4 * seat_period)
        << "epoch " << i + 1;
  }
}

}  // namespace
}  // namespace bcast::pop
