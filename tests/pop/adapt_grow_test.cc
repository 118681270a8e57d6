// The adaptive grow-direction scenario: a population whose pull demand
// sustains a backlog on a one-slot split must drive the controller to
// grow the split — and the growth must be shard-count invariant, since
// the controller only ever sees the coordinator's replayed queue.
//
// The same scenario backs the CI gate: CI renders it to a run report
// and feeds it through `bcastcheck --adapt_sweep ... --adapt_require_grow`,
// which fails unless `adapt_slot_grows > 0` and
// `adapt_final_slots > adapt_initial_slots`.

#include <gtest/gtest.h>

#include <cstdint>

#include "check/invariants.h"
#include "core/multi_client.h"
#include "obs/run_report.h"
#include "pop/engine.h"
#include "pop/pop_params.h"
#include "tests/pop/population_test_util.h"

namespace bcast::pop {
namespace {

// Eight clients pulling against a single pull slot with a low send
// threshold: the queue never drains at the initial split, so every
// epoch's mean queue depth sits above `queue_high`.
MultiClientParams BacklogScenario() {
  MultiClientParams params = pop_test::MakePopulation(8);
  params.pull.pull_slots = 1;
  params.pull.threshold = 30.0;
  params.adapt.epoch_cycles = 2;
  params.adapt.max_slots = 8;
  return params;
}

TEST(AdaptGrowTest, SustainedBacklogGrowsThePullSplit) {
  const MultiClientParams params = BacklogScenario();
  for (uint64_t k : {1u, 2u, 4u}) {
    SCOPED_TRACE(k);
    PopParams pop;
    pop.clients = params.clients.size();
    pop.shards = k;
    auto result = RunPopulationSimulation(params, pop);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const adapt::AdaptStats& stats = result->adapt_stats;
    EXPECT_GT(stats.epochs, 0u);
    EXPECT_GT(stats.slot_grows, 0u);
    EXPECT_GT(stats.final_slots, stats.initial_slots);
    EXPECT_LE(stats.final_slots, params.adapt.max_slots);
  }
}

TEST(AdaptGrowTest, ScenarioReportPassesTheRequireGrowGate) {
  // End-to-end through the bcastcheck machinery: a static anchor plus
  // the adaptive backlog run must clear CheckAdaptImprovement with
  // require_grow set — the exact invocation CI uses.
  PopParams pop;
  pop.clients = 8;
  pop.shards = 2;

  MultiClientParams anchor_params = BacklogScenario();
  anchor_params.adapt.epoch_cycles = 0;  // static anchor
  auto anchor_result = RunPopulationSimulation(anchor_params, pop);
  ASSERT_TRUE(anchor_result.ok()) << anchor_result.status().ToString();
  obs::RunReport anchor = MakePopulationRunReport(
      anchor_params, *anchor_result, "pop_grow_static", "test");

  const MultiClientParams params = BacklogScenario();
  auto result = RunPopulationSimulation(params, pop);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::RunReport adaptive =
      MakePopulationRunReport(params, *result, "pop_grow_adaptive", "test");

  const check::CheckList checks = check::CheckAdaptImprovement(
      {check::AdaptSweepPointFromReport(anchor),
       check::AdaptSweepPointFromReport(adaptive)},
      /*slack=*/0.0, /*require_grow=*/true);
  std::ostringstream out;
  checks.Print(out);
  EXPECT_TRUE(checks.all_ok()) << out.str();
}

}  // namespace
}  // namespace bcast::pop
