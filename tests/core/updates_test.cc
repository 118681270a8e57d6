#include "core/updates.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/simulator.h"

namespace bcast {
namespace {

SimParams SmallBase() {
  SimParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.access_range = 100;
  params.region_size = 5;
  params.cache_size = 50;
  params.policy = PolicyKind::kLix;
  params.measured_requests = 5000;
  return params;
}

// --- UpdateTracker ---

TEST(UpdateTrackerTest, RejectsBadInputs) {
  EXPECT_FALSE(UpdateTracker::Make(0, 1.0, 0.0, Rng(1)).ok());
  EXPECT_FALSE(UpdateTracker::Make(10, -1.0, 0.0, Rng(1)).ok());
  EXPECT_FALSE(UpdateTracker::Make(10, 1.0, -0.5, Rng(1)).ok());
}

TEST(UpdateTrackerTest, ZeroRateMeansNoUpdates) {
  auto tracker = UpdateTracker::Make(10, 0.0, 0.0, Rng(1));
  ASSERT_TRUE(tracker.ok());
  for (PageId p = 0; p < 10; ++p) {
    EXPECT_TRUE(std::isinf(tracker->LastUpdateBefore(p, 1e9)));
    EXPECT_LT(tracker->LastUpdateBefore(p, 1e9), 0.0);
  }
  EXPECT_EQ(tracker->updates_generated(), 0u);
}

TEST(UpdateTrackerTest, UpdatesAccumulateOverTime) {
  auto tracker = UpdateTracker::Make(4, 1.0, 0.0, Rng(2));
  ASSERT_TRUE(tracker.ok());
  // Rate 1 over 4 pages -> 0.25/page; by t=1000 each page has ~250.
  for (PageId p = 0; p < 4; ++p) {
    const double last = tracker->LastUpdateBefore(p, 1000.0);
    EXPECT_GT(last, 0.0);
    EXPECT_LE(last, 1000.0);
  }
  EXPECT_NEAR(static_cast<double>(tracker->updates_generated()), 1000.0,
              150.0);
}

TEST(UpdateTrackerTest, LastUpdateIsMonotone) {
  auto tracker = UpdateTracker::Make(2, 0.5, 0.0, Rng(3));
  ASSERT_TRUE(tracker.ok());
  double prev = -1e300;
  for (double t = 10.0; t <= 200.0; t += 10.0) {
    const double last = tracker->LastUpdateBefore(0, t);
    EXPECT_GE(last, prev);
    EXPECT_LE(last, t);
    prev = last;
  }
}

TEST(UpdateTrackerTest, SkewConcentratesUpdatesOnHotPages) {
  auto tracker = UpdateTracker::Make(100, 1.0, 1.2, Rng(4));
  ASSERT_TRUE(tracker.ok());
  // After a long horizon, page 0 must have been updated far more
  // recently on average than page 99. Compare recency at one instant.
  const double now = 100000.0;
  const double hot_age = now - tracker->LastUpdateBefore(0, now);
  const double cold_age = now - tracker->LastUpdateBefore(99, now);
  EXPECT_LT(hot_age, cold_age);
}

TEST(UpdateTrackerTest, DeterministicInSeed) {
  auto a = UpdateTracker::Make(8, 0.3, 0.95, Rng(9));
  auto b = UpdateTracker::Make(8, 0.3, 0.95, Rng(9));
  for (PageId p = 0; p < 8; ++p) {
    EXPECT_EQ(a->LastUpdateBefore(p, 500.0), b->LastUpdateBefore(p, 500.0));
  }
}

// --- RunUpdateSimulation ---

TEST(UpdateSimulationTest, ZeroRateMatchesReadOnlyBehaviour) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.0;
  auto result = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stale_hits, 0u);
  EXPECT_EQ(result->invalidation_refetches, 0u);
  EXPECT_EQ(result->requests, 5000u);
  EXPECT_GT(result->fresh_hits, 0u);
}

TEST(UpdateSimulationTest, CountsAreConsistent) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.1;
  updates.action = ConsistencyAction::kInvalidate;
  auto result = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->fresh_hits + result->stale_hits +
                result->invalidation_refetches + result->cold_misses,
            result->requests);
}

TEST(UpdateSimulationTest, NoActionServesStaleData) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.2;
  updates.action = ConsistencyAction::kNone;
  auto result = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stale_hits, 0u);
  EXPECT_EQ(result->invalidation_refetches, 0u);
}

TEST(UpdateSimulationTest, InvalidationTradesStalenessForRefetches) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.2;
  updates.action = ConsistencyAction::kNone;
  auto none = RunUpdateSimulation(base, updates);
  updates.action = ConsistencyAction::kInvalidate;
  auto invalidate = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(none.ok());
  ASSERT_TRUE(invalidate.ok());
  EXPECT_LT(invalidate->StaleFraction(), none->StaleFraction() / 2.0);
  EXPECT_GT(invalidate->invalidation_refetches, 0u);
  // Consistency costs latency: re-fetches wait on the broadcast.
  EXPECT_GT(invalidate->mean_response_time, none->mean_response_time);
}

TEST(UpdateSimulationTest, AutoRefreshBeatsInvalidationOnStaleness) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.2;
  updates.action = ConsistencyAction::kInvalidate;
  auto invalidate = RunUpdateSimulation(base, updates);
  updates.action = ConsistencyAction::kAutoRefresh;
  auto refresh = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(invalidate.ok());
  ASSERT_TRUE(refresh.ok());
  // Auto-refresh keeps copies current without demand re-fetches...
  EXPECT_EQ(refresh->invalidation_refetches, 0u);
  EXPECT_LE(refresh->StaleFraction(), invalidate->StaleFraction() + 0.02);
  // ...so it also responds faster.
  EXPECT_LT(refresh->mean_response_time, invalidate->mean_response_time);
}

TEST(UpdateSimulationTest, MoreUpdatesMoreStaleness) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.action = ConsistencyAction::kNone;
  updates.update_rate = 0.02;
  auto low = RunUpdateSimulation(base, updates);
  updates.update_rate = 0.5;
  auto high = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_GT(high->StaleFraction(), low->StaleFraction());
}

TEST(UpdateSimulationTest, DeterministicInSeed) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.1;
  auto a = RunUpdateSimulation(base, updates);
  auto b = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stale_hits, b->stale_hits);
  EXPECT_DOUBLE_EQ(a->mean_response_time, b->mean_response_time);
}

TEST(UpdateSimulationTest, RejectsBadRate) {
  UpdateParams updates;
  updates.update_rate = -0.1;
  EXPECT_FALSE(RunUpdateSimulation(SmallBase(), updates).ok());
}

TEST(UpdateSimulationTest, ReadOnlyRunsMatchSingleModeUnderEveryOptimizer) {
  // With no updates and no consistency action the volatile client is the
  // single-mode client, so it must see the same schedule and the same
  // Noise mapping. Noise draws its swap destinations from the layout, and
  // rbo's layout regroups pages into power-of-two classes: an updates
  // runner that rebuilt a Δ-rule layout of its own would diverge there.
  for (const char* optimizer : {"delta", "ksy", "rbo"}) {
    for (double noise : {0.0, 30.0}) {
      SimParams base = SmallBase();
      base.optimizer = optimizer;
      base.noise_percent = noise;
      UpdateParams updates;
      updates.update_rate = 0.0;
      updates.action = ConsistencyAction::kNone;
      auto volatile_run = RunUpdateSimulation(base, updates);
      auto single_run = RunSimulation(base);
      ASSERT_TRUE(volatile_run.ok()) << volatile_run.status().ToString();
      ASSERT_TRUE(single_run.ok()) << single_run.status().ToString();
      EXPECT_DOUBLE_EQ(volatile_run->mean_response_time,
                       single_run->metrics.mean_response_time())
          << optimizer << " noise " << noise;
    }
  }
}

TEST(UpdateSimulationTest, RejectsProcessFaults) {
  // The volatile client has no crash, stall, jitter or version-bump
  // machinery; accepting the knobs would report them beside zero effect.
  UpdateParams updates;
  // Each case is a valid single-mode configuration that updates refuses.
  const auto rejected = [&updates](const SimParams& base) {
    auto result = RunUpdateSimulation(base, updates);
    return base.Validate().ok() && !result.ok() &&
           result.status().code() == StatusCode::kInvalidArgument;
  };
  SimParams stall = SmallBase();
  stall.fault.process.stall_every = 5000.0;
  stall.fault.process.stall_len = 300.0;
  EXPECT_TRUE(rejected(stall));
  SimParams jitter = SmallBase();
  jitter.fault.process.slot_jitter = 0.5;
  EXPECT_TRUE(rejected(jitter));
  SimParams version = SmallBase();
  version.fault.process.version_every = 20000.0;
  EXPECT_TRUE(rejected(version));
  SimParams crash = SmallBase();
  crash.fault.process.crash_every = 5000.0;
  crash.fault.process.crash_down = 50.0;
  crash.fault.process.crash_cold = true;
  EXPECT_TRUE(rejected(crash));
  // Channel faults alone stay modelled.
  SimParams lossy = SmallBase();
  lossy.fault.loss = 0.1;
  EXPECT_TRUE(RunUpdateSimulation(lossy, updates).ok());
}

TEST(UpdateSimulationTest, RejectsAdaptation) {
  SimParams base = SmallBase();
  base.fault.loss = 0.1;
  base.adapt.epoch_cycles = 4;
  ASSERT_TRUE(base.Validate().ok());
  UpdateParams updates;
  auto result = RunUpdateSimulation(base, updates);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- Disconnection model (Sleepers and Workaholics) ---

TEST(SleeperTest, RejectsInconsistentNapConfig) {
  UpdateParams updates;
  updates.awake_for = 100.0;  // sleep_for left 0
  EXPECT_FALSE(RunUpdateSimulation(SmallBase(), updates).ok());
  updates.awake_for = 0.0;
  updates.sleep_for = 100.0;
  EXPECT_FALSE(RunUpdateSimulation(SmallBase(), updates).ok());
  updates.awake_for = -1.0;
  EXPECT_FALSE(RunUpdateSimulation(SmallBase(), updates).ok());
}

TEST(SleeperTest, NapsAreCounted) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.05;
  updates.awake_for = 500.0;
  updates.sleep_for = 500.0;
  auto result = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->naps, 0u);
  EXPECT_EQ(result->requests, base.measured_requests);
}

TEST(SleeperTest, LongSleeperDistrustsPastTheWindow) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.05;
  updates.action = ConsistencyAction::kInvalidate;
  updates.invalidation_window_cycles = 2;
  updates.awake_for = 2000.0;
  // Sleep far longer than 2 cycles (period is ~1101 slots for this
  // config): every nap forces a distrust purge.
  updates.sleep_for = 10000.0;
  auto result = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->naps, 0u);
  EXPECT_EQ(result->distrust_purges, result->naps);
  EXPECT_GT(result->invalidation_refetches, 0u);
}

TEST(SleeperTest, ShortSleeperStaysInsideTheWindow) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.05;
  updates.action = ConsistencyAction::kInvalidate;
  updates.invalidation_window_cycles = 50;  // generous history
  updates.awake_for = 2000.0;
  updates.sleep_for = 2000.0;  // well under 50 cycles
  auto result = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->naps, 0u);
  EXPECT_EQ(result->distrust_purges, 0u);
}

TEST(SleeperTest, DistrustCostsResponseTime) {
  // Same nap pattern; bounded vs unbounded invalidation history. The
  // distrusting client refetches pages that were actually fine.
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.01;  // few real updates
  updates.action = ConsistencyAction::kInvalidate;
  updates.awake_for = 2000.0;
  updates.sleep_for = 10000.0;
  updates.invalidation_window_cycles = 0;  // unbounded: trust survives
  auto trusting = RunUpdateSimulation(base, updates);
  updates.invalidation_window_cycles = 2;  // bounded: distrust purges
  auto distrusting = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(trusting.ok());
  ASSERT_TRUE(distrusting.ok());
  EXPECT_GT(distrusting->invalidation_refetches,
            trusting->invalidation_refetches);
  EXPECT_GT(distrusting->mean_response_time,
            trusting->mean_response_time);
}

TEST(SleeperTest, AutoRefreshBanksRefreshesAcrossNaps) {
  // A napping auto-refresh client must not lose the refreshes it saw in
  // earlier awake windows: staleness stays far below serve-stale's.
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.05;
  updates.awake_for = 3000.0;
  updates.sleep_for = 3000.0;
  updates.action = ConsistencyAction::kAutoRefresh;
  auto refresh = RunUpdateSimulation(base, updates);
  updates.action = ConsistencyAction::kNone;
  auto none = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(refresh.ok());
  ASSERT_TRUE(none.ok());
  EXPECT_LT(refresh->StaleFraction(), none->StaleFraction() / 2.0);
}

TEST(SleeperTest, SleepingMoreServesStalerData) {
  SimParams base = SmallBase();
  UpdateParams updates;
  updates.update_rate = 0.05;
  updates.action = ConsistencyAction::kAutoRefresh;
  updates.awake_for = 2000.0;
  updates.sleep_for = 500.0;
  auto light = RunUpdateSimulation(base, updates);
  updates.sleep_for = 20000.0;
  auto heavy = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(light.ok());
  ASSERT_TRUE(heavy.ok());
  EXPECT_GE(heavy->StaleFraction(), light->StaleFraction());
}

TEST(SleeperTest, AutoRefreshNapsOverNarrowAccessRange) {
  // The cache (and its freshness times) span only the 40-page access
  // range of a 500-page database; the nap-time refresh commit walks that
  // range. Run under the sanitizers, this pins every access in bounds.
  SimParams base = SmallBase();
  base.access_range = 40;
  base.cache_size = 30;
  base.offset = 120;
  UpdateParams updates;
  updates.update_rate = 0.05;
  updates.action = ConsistencyAction::kAutoRefresh;
  updates.awake_for = 300.0;
  updates.sleep_for = 700.0;
  auto result = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests, base.measured_requests);
  EXPECT_GT(result->naps, 0u);
  EXPECT_EQ(result->fresh_hits + result->stale_hits +
                result->invalidation_refetches + result->cold_misses,
            result->requests);
  EXPECT_GT(result->fresh_hits, 0u);
}

}  // namespace
}  // namespace bcast
