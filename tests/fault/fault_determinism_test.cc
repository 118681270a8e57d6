// Seeding discipline of the fault subsystem: disabled faults leave every
// prior result (and report identity) untouched, forced-zero faults are
// bit-identical to the ideal path, and the fault seed is isolated from
// the simulation's request/noise streams.

#include <gtest/gtest.h>

#include <string>

#include "core/multi_client.h"
#include "core/simulator.h"
#include "core/updates.h"
#include "pop/engine.h"

namespace bcast {
namespace {

SimParams SmallParams() {
  SimParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.access_range = 100;
  params.region_size = 5;
  params.cache_size = 50;
  params.policy = PolicyKind::kLru;
  params.noise_percent = 0.0;
  params.measured_requests = 2000;
  return params;
}

TEST(FaultDeterminismTest, InactiveFaultsKeepConfigIdentity) {
  // Golden baselines are matched by the config string: a defaulted fault
  // block must not change it, or every PR-2 baseline would orphan.
  const SimParams params = SmallParams();
  EXPECT_FALSE(params.fault.Active());
  EXPECT_EQ(params.ToString().find("fault"), std::string::npos);

  SimParams forced = SmallParams();
  forced.fault.force = true;
  EXPECT_NE(forced.ToString().find("fault<"), std::string::npos);
}

TEST(FaultDeterminismTest, ForcedZeroFaultsAreBitIdenticalToFaultsOff) {
  // The loss=0 fault path must reproduce the lossless numbers exactly:
  // same events, same response sum, same end time.
  const SimParams off = SmallParams();
  SimParams forced = SmallParams();
  forced.fault.force = true;
  auto a = RunSimulation(off);
  auto b = RunSimulation(forced);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->faults_active);
  EXPECT_TRUE(b->faults_active);
  EXPECT_EQ(a->metrics.requests(), b->metrics.requests());
  EXPECT_EQ(a->metrics.cache_hits(), b->metrics.cache_hits());
  EXPECT_EQ(a->metrics.served_per_disk(), b->metrics.served_per_disk());
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->end_time, b->end_time);
  EXPECT_EQ(a->perturbed_pages, b->perturbed_pages);
  // And the forced path proves it listened: every attempt delivered.
  EXPECT_EQ(b->faults.attempts, b->faults.delivered);
  EXPECT_EQ(b->faults.retries, 0u);
  EXPECT_DOUBLE_EQ(b->faults.delivery_ratio(), 1.0);
}

TEST(FaultDeterminismTest, FaultyRunsAreBitIdentical) {
  SimParams params = SmallParams();
  params.fault.loss = 0.05;
  params.fault.burst_len = 4.0;
  params.fault.corrupt = 0.01;
  auto a = RunSimulation(params);
  auto b = RunSimulation(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->end_time, b->end_time);
  EXPECT_EQ(a->faults.attempts, b->faults.attempts);
  EXPECT_EQ(a->faults.lost, b->faults.lost);
  EXPECT_EQ(a->faults.corrupted, b->faults.corrupted);
}

TEST(FaultDeterminismTest, FaultSeedChangeKeepsRequestStream) {
  // The fault master seed keys its own streams: re-seeding it must not
  // move a single request or noise draw of the simulation proper.
  SimParams one = SmallParams();
  one.noise_percent = 30.0;
  one.fault.loss = 0.05;
  one.fault.fault_seed = 1;
  SimParams two = one;
  two.fault.fault_seed = 2;
  auto a = RunSimulation(one);
  auto b = RunSimulation(two);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.requests(), b->metrics.requests());
  EXPECT_EQ(a->perturbed_pages, b->perturbed_pages);
  // The channel realization does move.
  EXPECT_NE(a->faults.lost, b->faults.lost);
}

TEST(FaultDeterminismTest, LossDelaysButNeverDropsRequests) {
  SimParams lossless = SmallParams();
  SimParams lossy = SmallParams();
  lossy.fault.loss = 0.1;
  auto a = RunSimulation(lossless);
  auto b = RunSimulation(lossy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.requests(), b->metrics.requests());
  EXPECT_GT(b->faults.lost, 0u);
  EXPECT_GT(b->metrics.mean_response_time(),
            a->metrics.mean_response_time());
  EXPECT_GT(b->faults.loss_delayed_fetches, 0u);
}

TEST(FaultDeterminismTest, MultiClientFaultyRunsAreBitIdentical) {
  MultiClientParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.measured_requests = 800;
  for (uint64_t shift : {0ull, 100ull}) {
    ClientSpec spec;
    spec.access_range = 100;
    spec.region_size = 5;
    spec.cache_size = 20;
    spec.interest_shift = shift;
    params.clients.push_back(spec);
  }
  params.fault.loss = 0.05;
  auto a = pop::RunPopulationSimulation(params, pop::PopParams{});
  auto b = pop::RunPopulationSimulation(params, pop::PopParams{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->faults_active);
  ASSERT_EQ(a->per_client.size(), b->per_client.size());
  for (size_t c = 0; c < a->per_client.size(); ++c) {
    EXPECT_EQ(a->per_client[c].mean_response_time(),
              b->per_client[c].mean_response_time())
        << "client " << c;
  }
  EXPECT_EQ(a->faults.attempts, b->faults.attempts);
  EXPECT_EQ(a->faults.lost, b->faults.lost);
}

TEST(FaultDeterminismTest, UpdateFaultyRunsAreBitIdentical) {
  SimParams base = SmallParams();
  base.fault.loss = 0.05;
  UpdateParams updates;
  updates.update_rate = 0.1;
  auto a = RunUpdateSimulation(base, updates);
  auto b = RunUpdateSimulation(base, updates);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->faults_active);
  EXPECT_EQ(a->fresh_hits, b->fresh_hits);
  EXPECT_EQ(a->mean_response_time, b->mean_response_time);
  EXPECT_EQ(a->faults.lost, b->faults.lost);
}

}  // namespace
}  // namespace bcast
