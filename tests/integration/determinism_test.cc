// Determinism and stream-independence properties across every runner.
// Exact reproducibility is a design requirement (the paper's results are
// point estimates; ours must be re-derivable bit-for-bit), and the named
// RNG sub-streams must isolate experimental factors from each other.

#include <gtest/gtest.h>

#include "core/analytic_model.h"
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
  params.policy = PolicyKind::kLix;
  params.noise_percent = 30.0;
  params.measured_requests = 3000;
  return params;
}

TEST(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const SimParams params = SmallParams();
  auto a = RunSimulation(params);
  auto b = RunSimulation(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.cache_hits(), b->metrics.cache_hits());
  EXPECT_EQ(a->metrics.served_per_disk(), b->metrics.served_per_disk());
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->end_time, b->end_time);
  EXPECT_EQ(a->perturbed_pages, b->perturbed_pages);
}

TEST(DeterminismTest, PolicyChangeKeepsNoiseRealization) {
  // The noise mapping draws from its own stream: switching the cache
  // policy must not move a single page.
  SimParams lru = SmallParams();
  lru.policy = PolicyKind::kLru;
  SimParams pix = SmallParams();
  pix.policy = PolicyKind::kPix;
  auto a = RunSimulation(lru);
  auto b = RunSimulation(pix);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->perturbed_pages, b->perturbed_pages);
}

TEST(DeterminismTest, CacheSizeChangeKeepsRequestStream) {
  // Request generation draws from its own stream: with no cache effect
  // (capacity 1 vs 2 both ~nothing), total requests' structure is fixed.
  // Observable proxy: the noise realization and warm-up length pattern.
  SimParams small = SmallParams();
  small.cache_size = 1;
  SimParams bigger = SmallParams();
  bigger.cache_size = 2;
  auto a = RunSimulation(small);
  auto b = RunSimulation(bigger);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->perturbed_pages, b->perturbed_pages);
  // Same request stream, nearly-equal hit behaviour: both tiny caches
  // serve the same heavy traffic to the broadcast.
  EXPECT_NEAR(a->metrics.mean_response_time(),
              b->metrics.mean_response_time(),
              0.05 * a->metrics.mean_response_time());
}

TEST(DeterminismTest, AnalyticModelSeesTheSimulatorsNoise) {
  // The closed form must consume the *same* noise realization: its
  // predicted cached set depends on the mapping, so two calls with the
  // same seed agree exactly, and a different seed moves it.
  SimParams params = SmallParams();
  params.policy = PolicyKind::kPix;
  auto a = PredictResponse(params);
  auto b = PredictResponse(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cached_pages, b->cached_pages);
  EXPECT_EQ(a->response_time, b->response_time);

  params.seed += 1;
  auto c = PredictResponse(params);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->response_time, c->response_time);
}

TEST(DeterminismTest, UpdateRunsAreBitIdentical) {
  UpdateParams updates;
  updates.update_rate = 0.1;
  updates.awake_for = 500.0;
  updates.sleep_for = 500.0;
  auto a = RunUpdateSimulation(SmallParams(), updates);
  auto b = RunUpdateSimulation(SmallParams(), updates);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->fresh_hits, b->fresh_hits);
  EXPECT_EQ(a->stale_hits, b->stale_hits);
  EXPECT_EQ(a->invalidation_refetches, b->invalidation_refetches);
  EXPECT_EQ(a->naps, b->naps);
  EXPECT_EQ(a->mean_response_time, b->mean_response_time);
}

TEST(DeterminismTest, MultiClientRunsAreBitIdentical) {
  MultiClientParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.measured_requests = 1500;
  for (uint64_t shift : {0ull, 100ull, 250ull}) {
    ClientSpec spec;
    spec.access_range = 100;
    spec.region_size = 5;
    spec.cache_size = 20;
    spec.interest_shift = shift;
    params.clients.push_back(spec);
  }
  auto a = pop::RunPopulationSimulation(params, pop::PopParams{});
  auto b = pop::RunPopulationSimulation(params, pop::PopParams{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->mean_response_times, b->mean_response_times);
  EXPECT_EQ(a->end_time, b->end_time);
}

TEST(DeterminismTest, ProgramKindsShareTheSameClientRandomness) {
  // Swapping the broadcast *program* must not disturb the request
  // stream: the random program draws from a dedicated stream.
  SimParams multi = SmallParams();
  multi.cache_size = 1;
  SimParams random = multi;
  random.program_kind = ProgramKind::kRandom;
  auto a = RunSimulation(multi);
  auto b = RunSimulation(random);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Identical request count and noise; only the schedule differs.
  EXPECT_EQ(a->metrics.requests(), b->metrics.requests());
  EXPECT_EQ(a->perturbed_pages, b->perturbed_pages);
  EXPECT_NE(a->metrics.mean_response_time(),
            b->metrics.mean_response_time());
}

}  // namespace
}  // namespace bcast
