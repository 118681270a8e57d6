// Integration tests at the paper's full scale (ServerDBSize 5000,
// AccessRange 1000) with request counts trimmed for CI speed.

#include <gtest/gtest.h>

#include "broadcast/analysis.h"
#include "core/experiment.h"
#include "core/simulator.h"

namespace bcast {
namespace {

SimParams PaperBase() {
  SimParams params;  // defaults are the paper's Table 4
  params.measured_requests = 20000;
  return params;
}

TEST(EndToEndTest, FlatDiskBaselineIsHalfDb) {
  SimParams params = PaperBase();
  params.disk_sizes = {5000};
  params.delta = 0;
  params.cache_size = 1;
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->metrics.mean_response_time(), 2500.0, 60.0);
}

TEST(EndToEndTest, DeltaZeroEqualsFlatRegardlessOfDisks) {
  // "at delta 0 the broadcast is flat": any disk partitioning with equal
  // frequencies gives the flat response time.
  SimParams flat = PaperBase();
  flat.disk_sizes = {5000};
  flat.cache_size = 1;
  flat.delta = 0;
  SimParams d5 = PaperBase();
  d5.cache_size = 1;
  d5.delta = 0;
  auto r_flat = RunSimulation(flat);
  auto r_d5 = RunSimulation(d5);
  ASSERT_TRUE(r_flat.ok());
  ASSERT_TRUE(r_d5.ok());
  EXPECT_NEAR(r_flat->metrics.mean_response_time(),
              r_d5->metrics.mean_response_time(), 30.0);
}

TEST(EndToEndTest, SimulatedDelaysMatchAnalyticNoCacheModel) {
  // With no cache and no noise, the simulator's mean response should
  // match the analytic expectation: sum over pages of P(page) *
  // (expected wait + 1 transmission unit).
  SimParams params = PaperBase();
  params.cache_size = 1;
  params.delta = 3;
  params.measured_requests = 40000;
  auto schedule = BuildSchedule(params);
  ASSERT_TRUE(schedule.ok());
  auto gen = AccessGenerator::Make(params.access_range, params.region_size,
                                   params.theta, params.think_time,
                                   params.think_kind, Rng(params.seed));
  ASSERT_TRUE(gen.ok());
  double analytic = 0.0;
  for (PageId p = 0; p < params.access_range; ++p) {
    analytic += gen->Probability(p) * (ExpectedDelay(schedule->program, p) + 1.0);
  }
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->metrics.mean_response_time(), analytic,
              analytic * 0.05);
}

TEST(EndToEndTest, CacheDramaticallyImprovesResponse) {
  SimParams no_cache = PaperBase();
  no_cache.cache_size = 1;
  no_cache.delta = 3;
  SimParams with_cache = no_cache;
  with_cache.cache_size = 500;
  with_cache.offset = 500;
  with_cache.policy = PolicyKind::kPix;
  auto a = RunSimulation(no_cache);
  auto b = RunSimulation(with_cache);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(b->metrics.mean_response_time(),
            a->metrics.mean_response_time() / 2.0);
}

TEST(EndToEndTest, WarmupExcludedFromMeasurement) {
  SimParams params = PaperBase();
  params.cache_size = 250;
  params.policy = PolicyKind::kLru;
  params.measured_requests = 5000;
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  // Warm-up happened (cache had to fill) and did not pollute metrics.
  EXPECT_GE(result->warmup_requests, 250u);
  EXPECT_EQ(result->metrics.requests(), 5000u);
}

TEST(EndToEndTest, HighNoiseHurtsNoCacheMultiDisk) {
  SimParams params = PaperBase();
  params.cache_size = 1;
  params.delta = 4;
  params.disk_sizes = {2500, 2500};  // D3, the paper's fragile config
  auto quiet = RunSimulation(params);
  params.noise_percent = 75.0;
  auto noisy = RunSimulation(params);
  ASSERT_TRUE(quiet.ok());
  ASSERT_TRUE(noisy.ok());
  EXPECT_GT(noisy->metrics.mean_response_time(),
            quiet->metrics.mean_response_time() * 1.5);
}

TEST(EndToEndTest, ResponseTimesBoundedByPeriod) {
  SimParams params = PaperBase();
  params.cache_size = 1;
  params.delta = 5;
  params.noise_percent = 30.0;
  auto result = RunSimulation(params);
  ASSERT_TRUE(result.ok());
  // No single wait can exceed one full period (fixed inter-arrival).
  EXPECT_LE(result->metrics.response_time().max(),
            static_cast<double>(result->period) + 1.0);
}

TEST(EndToEndTest, ThinkTimeKindChangesAlignmentNotShape) {
  SimParams fixed = PaperBase();
  fixed.cache_size = 1;
  fixed.delta = 3;
  SimParams expo = fixed;
  expo.think_kind = ThinkTimeKind::kExponential;
  auto a = RunSimulation(fixed);
  auto b = RunSimulation(expo);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->metrics.mean_response_time(),
              b->metrics.mean_response_time(),
              a->metrics.mean_response_time() * 0.1);
}

}  // namespace
}  // namespace bcast
