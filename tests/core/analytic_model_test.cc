#include "core/analytic_model.h"

#include <gtest/gtest.h>

#include "core/simulator.h"

namespace bcast {
namespace {

SimParams PaperPixParams() {
  SimParams params;
  params.cache_size = 500;
  params.offset = 500;
  params.policy = PolicyKind::kPix;
  params.delta = 3;
  // Cross-validation needs long runs: misses on the slowest disk are
  // rare (<1%) but cost thousands of units, so short runs have very
  // noisy means.
  params.measured_requests = 150000;
  return params;
}

TEST(AnalyticModelTest, RejectsHistoryDependentPolicies) {
  SimParams params = PaperPixParams();
  params.policy = PolicyKind::kLru;
  auto prediction = PredictResponse(params);
  EXPECT_FALSE(prediction.ok());
  EXPECT_EQ(prediction.status().code(), StatusCode::kUnimplemented);
}

TEST(AnalyticModelTest, AllowsAnyPolicyWhenCacheless) {
  SimParams params = PaperPixParams();
  params.policy = PolicyKind::kLru;
  params.cache_size = 1;
  EXPECT_TRUE(PredictResponse(params).ok());
}

TEST(AnalyticModelTest, FractionsSumToOne) {
  auto prediction = PredictResponse(PaperPixParams());
  ASSERT_TRUE(prediction.ok());
  double total = prediction->hit_rate;
  for (double f : prediction->disk_fractions) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(prediction->cached_pages.size(), 500u);
}

TEST(AnalyticModelTest, CachelessFlatDiskIsHalfDbPlusOne) {
  SimParams params;
  params.disk_sizes = {5000};
  params.delta = 0;
  params.cache_size = 1;
  auto prediction = PredictResponse(params);
  ASSERT_TRUE(prediction.ok());
  EXPECT_NEAR(prediction->response_time, 2501.0, 1e-9);
  EXPECT_DOUBLE_EQ(prediction->hit_rate, 0.0);
}

TEST(AnalyticModelTest, PCachesHottestPages) {
  SimParams params = PaperPixParams();
  params.policy = PolicyKind::kP;
  params.noise_percent = 0.0;
  auto prediction = PredictResponse(params);
  ASSERT_TRUE(prediction.ok());
  // P's steady state is exactly the 500 hottest logical pages.
  for (PageId l : prediction->cached_pages) EXPECT_LT(l, 500u);
}

TEST(AnalyticModelTest, MatchesSimulationUnderRboWithNoise) {
  // rbo regroups pages into power-of-two frequency classes, and Noise
  // draws its swap destinations from the layout: the model must map
  // pages over the schedule's own layout to see the simulator's mapping.
  for (double noise : {0.0, 30.0}) {
    SimParams params;
    params.cache_size = 1;
    params.optimizer = "rbo";
    params.noise_percent = noise;
    params.measured_requests = 30000;
    auto prediction = PredictResponse(params);
    auto simulated = RunSimulation(params);
    ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
    ASSERT_TRUE(simulated.ok()) << simulated.status().ToString();
    EXPECT_NEAR(simulated->metrics.mean_response_time(),
                prediction->response_time,
                0.05 * prediction->response_time)
        << "noise " << noise;
  }
}

TEST(AnalyticModelTest, MatchesSimulationNoCache) {
  for (uint64_t delta : {0u, 2u, 5u}) {
    SimParams params;
    params.cache_size = 1;
    params.delta = delta;
    params.measured_requests = 30000;
    auto prediction = PredictResponse(params);
    auto simulated = RunSimulation(params);
    ASSERT_TRUE(prediction.ok());
    ASSERT_TRUE(simulated.ok());
    EXPECT_NEAR(simulated->metrics.mean_response_time(),
                prediction->response_time,
                0.05 * prediction->response_time)
        << "delta " << delta;
  }
}

TEST(AnalyticModelTest, MatchesSimulationPixUnderNoise) {
  // The strongest cross-check: cache, offset AND noise all active. The
  // analytic model shares the noise realization but no simulation code.
  for (double noise : {0.0, 30.0, 60.0}) {
    SimParams params = PaperPixParams();
    params.noise_percent = noise;
    auto prediction = PredictResponse(params);
    auto simulated = RunSimulation(params);
    ASSERT_TRUE(prediction.ok());
    ASSERT_TRUE(simulated.ok());
    EXPECT_NEAR(simulated->metrics.mean_response_time(),
                prediction->response_time,
                0.09 * prediction->response_time + 5.0)
        << "noise " << noise;
    EXPECT_NEAR(simulated->metrics.hit_rate(), prediction->hit_rate, 0.03)
        << "noise " << noise;
  }
}

TEST(AnalyticModelTest, MatchesSimulationPWithOffset) {
  SimParams params = PaperPixParams();
  params.policy = PolicyKind::kP;
  params.noise_percent = 15.0;
  auto prediction = PredictResponse(params);
  auto simulated = RunSimulation(params);
  ASSERT_TRUE(prediction.ok());
  ASSERT_TRUE(simulated.ok());
  EXPECT_NEAR(simulated->metrics.mean_response_time(),
              prediction->response_time,
              0.09 * prediction->response_time + 5.0);
}

TEST(AnalyticModelTest, DiskFractionsMatchSimulation) {
  SimParams params = PaperPixParams();
  params.noise_percent = 30.0;
  auto prediction = PredictResponse(params);
  auto simulated = RunSimulation(params);
  ASSERT_TRUE(prediction.ok());
  ASSERT_TRUE(simulated.ok());
  const auto sim_fracs = simulated->metrics.LocationFractions();
  for (size_t d = 0; d < prediction->disk_fractions.size(); ++d) {
    EXPECT_NEAR(sim_fracs[d + 1], prediction->disk_fractions[d], 0.03)
        << "disk " << d;
  }
}

TEST(AnalyticModelTest, PredictsThePixAdvantage) {
  // The model alone reproduces Figure 10's qualitative content.
  SimParams params = PaperPixParams();
  params.noise_percent = 60.0;
  auto pix = PredictResponse(params);
  params.policy = PolicyKind::kP;
  auto p = PredictResponse(params);
  ASSERT_TRUE(pix.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_LT(pix->response_time, p->response_time);
}

}  // namespace
}  // namespace bcast
