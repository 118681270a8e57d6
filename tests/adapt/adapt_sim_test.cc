// End-to-end behaviour of the adaptive control plane: the inactive
// config identity, validation walls, the controller actually repairing
// under loss, slot control staying within bounds, determinism, and the
// report extras the --adapt_sweep gate consumes.

#include <gtest/gtest.h>

#include <string>

#include "adapt/access_monitor.h"
#include "core/multi_client.h"
#include "core/simulator.h"
#include "pop/engine.h"

namespace bcast {
namespace {

// Small D-layout whose access range reaches the slowest disk, so cold
// fetches exist and promotions have somewhere to matter.
SimParams SmallParams() {
  SimParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.access_range = 500;
  params.region_size = 5;
  params.cache_size = 50;
  params.policy = PolicyKind::kLru;
  params.noise_percent = 0.0;
  params.measured_requests = 2000;
  return params;
}

SimParams AdaptiveLossParams() {
  SimParams params = SmallParams();
  params.fault.loss = 0.1;
  params.adapt.epoch_cycles = 2;
  params.adapt.max_promote = 4;
  return params;
}

bool HasExtra(const obs::RunReport& report, const std::string& key) {
  for (const auto& [k, v] : report.extra) {
    if (k == key) return true;
  }
  return false;
}

TEST(AdaptSimTest, InactiveAdaptKeepsConfigIdentity) {
  const SimParams params = SmallParams();
  EXPECT_FALSE(params.adapt.Active());
  EXPECT_EQ(params.ToString().find("adapt"), std::string::npos);

  const SimParams adaptive = AdaptiveLossParams();
  EXPECT_NE(adaptive.ToString().find("adapt<"), std::string::npos);
}

TEST(AdaptSimTest, AdaptRequiresTheMultiDiskProgram) {
  SimParams params = AdaptiveLossParams();
  params.program_kind = ProgramKind::kSkewed;
  EXPECT_FALSE(params.Validate().ok());
  EXPECT_FALSE(RunSimulation(params).ok());
}

TEST(AdaptSimTest, AdaptRequiresASignalToAdaptTo) {
  SimParams params = SmallParams();
  params.adapt.epoch_cycles = 2;  // neither faults nor pull configured
  EXPECT_FALSE(params.Validate().ok());
  // Either signal alone suffices.
  SimParams with_loss = params;
  with_loss.fault.loss = 0.1;
  EXPECT_TRUE(with_loss.Validate().ok());
  SimParams with_pull = params;
  with_pull.pull.pull_slots = 2;
  EXPECT_TRUE(with_pull.Validate().ok());
}

TEST(AdaptSimTest, InactiveAdaptReportCarriesNoAdaptExtras) {
  SimParams params = SmallParams();
  params.fault.loss = 0.1;
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->adapt_active);
  const obs::RunReport report = MakeRunReport(params, *result, "test");
  EXPECT_FALSE(HasExtra(report, "adapt_epochs"));
  EXPECT_FALSE(HasExtra(report, "adapt_cold_mean_rt"));
}

TEST(AdaptSimTest, ControllerRepairsUnderLoss) {
  const SimParams params = AdaptiveLossParams();
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->adapt_active);
  const adapt::AdaptStats& stats = result->adapt_stats;
  EXPECT_GT(stats.epochs, 0u);
  EXPECT_GT(stats.promotions, 0u);
  EXPECT_GT(stats.rebuilds, 0u);
  EXPECT_EQ(stats.slot_history.size(), stats.epochs);
  // The pinned cold class was exercised and measured.
  EXPECT_GT(result->cold_requests, 0u);
  EXPECT_GT(stats.cold_wait.count(), 0u);

  const obs::RunReport report = MakeRunReport(params, *result, "test");
  EXPECT_TRUE(HasExtra(report, "adapt_epochs"));
  EXPECT_TRUE(HasExtra(report, "adapt_promotions"));
  EXPECT_TRUE(HasExtra(report, "adapt_cold_mean_rt"));
  EXPECT_TRUE(HasExtra(report, "adapt_slot_range_late"));
}

TEST(AdaptSimTest, AdaptiveRunsAreBitIdentical) {
  const SimParams params = AdaptiveLossParams();
  auto a = RunSimulation(params);
  auto b = RunSimulation(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->end_time, b->end_time);
  EXPECT_EQ(a->events_dispatched, b->events_dispatched);
  EXPECT_EQ(a->adapt_stats.epochs, b->adapt_stats.epochs);
  EXPECT_EQ(a->adapt_stats.promotions, b->adapt_stats.promotions);
  EXPECT_EQ(a->adapt_stats.slot_history, b->adapt_stats.slot_history);
  EXPECT_EQ(a->cold_hits, b->cold_hits);
}

TEST(AdaptSimTest, SlotControlStaysWithinBounds) {
  SimParams params = SmallParams();
  params.pull.pull_slots = 2;
  params.pull.threshold = 50.0;
  params.adapt.epoch_cycles = 2;
  params.adapt.max_promote = 0;  // slot control only
  params.adapt.min_slots = 1;
  params.adapt.max_slots = 4;
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  const adapt::AdaptStats& stats = result->adapt_stats;
  EXPECT_GT(stats.epochs, 0u);
  EXPECT_EQ(stats.initial_slots, 2u);
  for (uint64_t slots : stats.slot_history) {
    EXPECT_GE(slots, params.adapt.min_slots);
    EXPECT_LE(slots, params.adapt.max_slots);
  }
  EXPECT_GE(stats.final_slots, params.adapt.min_slots);
  EXPECT_LE(stats.final_slots, params.adapt.max_slots);
}

TEST(AccessMonitorTest, WindowCountsAndDrains) {
  adapt::AccessMonitor monitor(4);
  EXPECT_EQ(monitor.window_total(), 0u);
  monitor.OnFetch(1);
  monitor.OnFetch(1);
  monitor.OnFetch(3);
  EXPECT_EQ(monitor.window_total(), 3u);
  const std::vector<uint64_t> window = monitor.TakeWindow();
  EXPECT_EQ(window, (std::vector<uint64_t>{0, 2, 0, 1}));
  EXPECT_EQ(monitor.window_total(), 0u);
  EXPECT_EQ(monitor.TakeWindow(), (std::vector<uint64_t>{0, 0, 0, 0}));
}

TEST(AccessMonitorTest, AbsorbFoldsAndResetsTheSource) {
  adapt::AccessMonitor a(3);
  adapt::AccessMonitor b(3);
  a.OnFetch(0);
  b.OnFetch(0);
  b.OnFetch(2);
  a.Absorb(b);
  EXPECT_EQ(a.window_total(), 3u);
  EXPECT_EQ(b.window_total(), 0u);
  EXPECT_EQ(a.TakeWindow(), (std::vector<uint64_t>{2, 0, 1}));
  EXPECT_EQ(b.TakeWindow(), (std::vector<uint64_t>{0, 0, 0}));
}

// Demand misaligned with the nominal layout: the client's hot region
// starts 250 pages in, seated on the slow disks until reopt notices.
SimParams ReoptParams() {
  SimParams params = SmallParams();
  params.offset = 250;
  params.adapt.epoch_cycles = 2;
  params.adapt.reopt = true;
  return params;
}

TEST(AdaptSimTest, ReoptReseatsToMeasuredDemand) {
  const SimParams params = ReoptParams();
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->adapt_active);
  const adapt::AdaptStats& stats = result->adapt_stats;
  EXPECT_GT(stats.epochs, 0u);
  EXPECT_GT(stats.reopts, 0u);
  EXPECT_GT(stats.promotions, 0u);
  EXPECT_GT(stats.demotions, 0u)
      << "re-seating a misaligned layout must also demote";
  EXPECT_GT(stats.rebuilds, 0u);

  const obs::RunReport report = MakeRunReport(params, *result, "test");
  EXPECT_TRUE(HasExtra(report, "adapt_reopts"));
  EXPECT_TRUE(HasExtra(report, "adapt_demotions"));
}

TEST(AdaptSimTest, ReoptRunsAreBitIdentical) {
  const SimParams params = ReoptParams();
  auto a = RunSimulation(params);
  auto b = RunSimulation(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->end_time, b->end_time);
  EXPECT_EQ(a->adapt_stats.reopts, b->adapt_stats.reopts);
  EXPECT_EQ(a->adapt_stats.promotions, b->adapt_stats.promotions);
  EXPECT_EQ(a->adapt_stats.demotions, b->adapt_stats.demotions);
}

TEST(AdaptSimTest, ReoptHelpsWhenInterestDisagreesWithNominal) {
  SimParams fixed = ReoptParams();
  fixed.adapt.epoch_cycles = 0;  // nominal schedule, never re-seated
  fixed.adapt.reopt = false;
  auto without = RunSimulation(fixed);
  auto with = RunSimulation(ReoptParams());
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_LT(with->metrics.mean_response_time(),
            without->metrics.mean_response_time())
      << "re-seating hot-but-cold-seated pages must pay off";
}

TEST(AdaptSimTest, PopulationRunAdaptsAndStaysDeterministic) {
  MultiClientParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.measured_requests = 500;
  params.fault.loss = 0.1;
  params.adapt.epoch_cycles = 2;
  for (int c = 0; c < 4; ++c) {
    ClientSpec spec;
    spec.access_range = 500;
    spec.region_size = 5;
    spec.cache_size = 20;
    spec.policy = PolicyKind::kLru;
    params.clients.push_back(spec);
  }
  auto result = pop::RunPopulationSimulation(params, pop::PopParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->adapt_active);
  EXPECT_GT(result->adapt_stats.epochs, 0u);
  EXPECT_GT(result->adapt_stats.promotions, 0u);
  auto again = pop::RunPopulationSimulation(params, pop::PopParams{});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(result->adapt_stats.epochs, again->adapt_stats.epochs);
  EXPECT_EQ(result->adapt_stats.promotions,
            again->adapt_stats.promotions);
  EXPECT_EQ(result->cold_requests, again->cold_requests);
}

}  // namespace
}  // namespace bcast
