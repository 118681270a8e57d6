// The chaos harness itself: scenario generation is a pure function of
// (seed, axes), disabling one axis never reshuffles another, scenarios
// run clean, the disabled-axes two-backend identity holds, and — the
// mutation check — a deliberately injected accounting bug is caught by
// an invariant (proving the net has no holes where it claims coverage).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "chaos/chaos.h"

namespace bcast::chaos {
namespace {

TEST(ChaosGeneratorTest, DeterministicInSeedAndAxes) {
  const ChaosScenario a = GenerateScenario(77, ChaosAxes::All());
  const ChaosScenario b = GenerateScenario(77, ChaosAxes::All());
  EXPECT_EQ(a.params.ToString(), b.params.ToString());
  EXPECT_EQ(a.horizon, b.horizon);
  const ChaosScenario c = GenerateScenario(78, ChaosAxes::All());
  EXPECT_NE(a.params.ToString(), c.params.ToString());
}

TEST(ChaosGeneratorTest, DisablingOneAxisNeverReshufflesOthers) {
  // The shrinker depends on this: turning the crash axis off must leave
  // every other axis's drawn values bit-identical.
  ChaosAxes no_crash = ChaosAxes::All();
  no_crash.crash = false;
  const ChaosScenario all = GenerateScenario(5, ChaosAxes::All());
  const ChaosScenario less = GenerateScenario(5, no_crash);
  EXPECT_EQ(less.params.fault.process.crash_every, 0.0);
  EXPECT_EQ(all.params.fault.loss, less.params.fault.loss);
  EXPECT_EQ(all.params.fault.doze_for, less.params.fault.doze_for);
  EXPECT_EQ(all.params.fault.process.stall_every,
            less.params.fault.process.stall_every);
  EXPECT_EQ(all.params.fault.process.slot_jitter,
            less.params.fault.process.slot_jitter);
  EXPECT_EQ(all.params.fault.process.version_every,
            less.params.fault.process.version_every);
  EXPECT_EQ(all.params.pull.threshold, less.params.pull.threshold);
  EXPECT_EQ(all.params.cache_size, less.params.cache_size);
  EXPECT_EQ(all.params.seed, less.params.seed);
}

TEST(ChaosGeneratorTest, AxesToStringAndEmpty) {
  EXPECT_EQ(ChaosAxes::None().ToString(), "none");
  EXPECT_TRUE(ChaosAxes::None().Empty());
  EXPECT_FALSE(ChaosAxes::All().Empty());
  ChaosAxes only_crash = ChaosAxes::None();
  only_crash.crash = true;
  EXPECT_EQ(only_crash.ToString(), "crash");
}

TEST(ChaosRunTest, FirstSeedsRunClean) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const ChaosScenario scenario = GenerateScenario(seed, ChaosAxes::All());
    const ChaosOutcome outcome = RunScenario(scenario);
    EXPECT_TRUE(outcome.ok()) << "seed " << seed << ": "
                              << (outcome.violations.empty()
                                      ? ""
                                      : outcome.violations[0].detail);
    EXPECT_TRUE(outcome.completed);
  }
}

TEST(ChaosRunTest, AxislessScenarioRunsClean) {
  const ChaosScenario scenario = GenerateScenario(3, ChaosAxes::None());
  EXPECT_FALSE(scenario.params.fault.process.Active());
  const ChaosOutcome outcome = RunScenario(scenario);
  EXPECT_TRUE(outcome.ok());
}

TEST(ChaosRunTest, MutationCheckCatchesInjectedAccountingBug) {
  // The acceptance gate: an off-by-one planted in the request books must
  // trip an invariant. If this test ever passes with outcome.ok(), the
  // net has a hole exactly where it claims coverage.
  const ChaosScenario scenario = GenerateScenario(0, ChaosAxes::All());
  const ChaosOutcome outcome =
      RunScenario(scenario, [](obs::RunReport* report) { ++report->requests; });
  ASSERT_FALSE(outcome.ok());
  bool caught = false;
  for (const ChaosViolation& v : outcome.violations) {
    if (v.invariant == "measured_count") caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(ChaosOptimizerTest, AxisDrawsTheWholeFrontier) {
  // With the pull axis off, nothing forces a downgrade, so the draw must
  // reach every registered optimizer across a handful of seeds.
  ChaosAxes no_pull = ChaosAxes::All();
  no_pull.pull = false;
  std::set<std::string> seen;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    seen.insert(GenerateScenario(seed, no_pull).params.optimizer);
  }
  EXPECT_EQ(seen, (std::set<std::string>{"delta", "ksy", "rbo"}));
}

TEST(ChaosOptimizerTest, PullScenariosDowngradeRboToKsy) {
  // Validate rejects pull+rbo, so scenarios with the pull axis enabled
  // must never draw a bit-reversal schedule — and every generated
  // scenario must be structurally valid.
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const ChaosScenario scenario = GenerateScenario(seed, ChaosAxes::All());
    EXPECT_NE(scenario.params.optimizer, "rbo") << "seed " << seed;
    const Status st = scenario.params.Validate();
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
  }
}

TEST(ChaosOptimizerTest, DisabledAxisKeepsThePaperSchedule) {
  ChaosAxes no_opt = ChaosAxes::All();
  no_opt.optimizer = false;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const ChaosScenario all = GenerateScenario(seed, ChaosAxes::All());
    const ChaosScenario less = GenerateScenario(seed, no_opt);
    EXPECT_EQ(less.params.optimizer, "delta");
    // The other axes' drawn values stay put (the shrinker's contract);
    // only version_every may move, since its cadence is derived from the
    // on-air program's period.
    EXPECT_EQ(all.params.fault.loss, less.params.fault.loss);
    EXPECT_EQ(all.params.cache_size, less.params.cache_size);
    EXPECT_EQ(all.params.pull.threshold, less.params.pull.threshold);
    EXPECT_EQ(all.params.seed, less.params.seed);
  }
}

TEST(ChaosOptimizerTest, NamedInToString) {
  EXPECT_NE(ChaosAxes::All().ToString().find("optimizer"),
            std::string::npos);
  ChaosAxes only_optimizer = ChaosAxes::None();
  only_optimizer.optimizer = true;
  EXPECT_EQ(only_optimizer.ToString(), "optimizer");
  EXPECT_FALSE(only_optimizer.Empty());
}

TEST(ChaosPopulationTest, PopAxisDrawsBoundedShape) {
  bool saw_population = false;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    const ChaosScenario scenario = GenerateScenario(seed, ChaosAxes::All());
    EXPECT_GE(scenario.clients, 2u);
    EXPECT_LE(scenario.clients, 5u);
    EXPECT_GE(scenario.shards, 1u);
    EXPECT_LE(scenario.shards, scenario.clients);
    if (scenario.clients > 1) saw_population = true;
    // Disabling the axis collapses the shape without reshuffling the
    // rest of the scenario (the shrinker's contract).
    ChaosAxes no_pop = ChaosAxes::All();
    no_pop.pop = false;
    const ChaosScenario single = GenerateScenario(seed, no_pop);
    EXPECT_EQ(single.clients, 1u);
    EXPECT_EQ(single.shards, 1u);
    EXPECT_EQ(single.params.ToString(), scenario.params.ToString());
  }
  EXPECT_TRUE(saw_population);
}

TEST(ChaosPopulationTest, PopAxisNamedInToString) {
  EXPECT_NE(ChaosAxes::All().ToString().find("pop"), std::string::npos);
  ChaosAxes only_pop = ChaosAxes::None();
  only_pop.pop = true;
  EXPECT_EQ(only_pop.ToString(), "pop");
  EXPECT_FALSE(only_pop.Empty());
}

TEST(ChaosPopulationTest, ShardIdentityHoldsOnSampledSeeds) {
  // The K-invariance contract under full fault composition: the drawn
  // shard count and a single-shard re-run must serialize identically.
  for (uint64_t seed : {0ull, 5ull, 11ull}) {
    const ChaosScenario scenario = GenerateScenario(seed, ChaosAxes::All());
    const auto violation = CheckShardIdentity(scenario);
    EXPECT_FALSE(violation.has_value())
        << "seed " << seed << ": " << violation->detail;
  }
}

TEST(ChaosPopulationTest, ShardIdentityIsVacuousForSingleClient) {
  ChaosAxes no_pop = ChaosAxes::All();
  no_pop.pop = false;
  const ChaosScenario scenario = GenerateScenario(2, no_pop);
  EXPECT_FALSE(CheckShardIdentity(scenario).has_value());
}

TEST(ChaosMinimizeTest, PassingSeedMinimizesToItself) {
  // MinimizeAxes only removes an axis when the scenario still fails
  // without it; a passing scenario must come back untouched.
  const ChaosAxes minimal = MinimizeAxes(0, ChaosAxes::All());
  EXPECT_EQ(minimal.ToString(), ChaosAxes::All().ToString());
}

TEST(ChaosReproTest, CommandNamesTheSeed) {
  EXPECT_NE(ReproCommand(42).find("--chaos_seed 42"), std::string::npos);
  EXPECT_NE(ReproCommand(42).find("bcastchaos"), std::string::npos);
}

}  // namespace
}  // namespace bcast::chaos
