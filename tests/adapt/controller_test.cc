// The pull-slot hysteresis rule in isolation: sustained signals act after
// exactly `hysteresis_epochs`, mixed signals never act, every move resets
// the streak, and the configured bounds are never crossed. Then the
// controller's push-only rebuild rule: relabel the seat program.

#include "adapt/controller.h"

#include <gtest/gtest.h>

#include <memory>

#include "broadcast/generator.h"
#include "core/params.h"
#include "core/simulator.h"

namespace bcast::adapt {
namespace {

AdaptParams Defaults() {
  AdaptParams params;
  params.epoch_cycles = 4;
  params.queue_high = 2.0;
  params.idle_low = 0.25;
  params.idle_high = 0.75;
  params.hysteresis_epochs = 2;
  params.min_slots = 1;
  params.max_slots = 8;
  return params;
}

TEST(SlotControllerTest, SustainedBacklogGrowsAfterHysteresis) {
  SlotController control(Defaults(), 2);
  // One epoch of backlog is not enough...
  EXPECT_EQ(control.Decide(5.0, 0.0), 2u);
  // ...the second consecutive one acts.
  EXPECT_EQ(control.Decide(5.0, 0.0), 3u);
  EXPECT_EQ(control.grows(), 1u);
  EXPECT_EQ(control.shrinks(), 0u);
}

TEST(SlotControllerTest, SustainedIdlenessShrinksAfterHysteresis) {
  SlotController control(Defaults(), 4);
  EXPECT_EQ(control.Decide(0.0, 0.9), 4u);
  EXPECT_EQ(control.Decide(0.0, 0.9), 3u);
  EXPECT_EQ(control.shrinks(), 1u);
}

TEST(SlotControllerTest, ActingResetsTheStreak) {
  SlotController control(Defaults(), 2);
  control.Decide(5.0, 0.0);
  EXPECT_EQ(control.Decide(5.0, 0.0), 3u);  // acted
  // The streak restarts: two more epochs needed for the next move.
  EXPECT_EQ(control.Decide(5.0, 0.0), 3u);
  EXPECT_EQ(control.Decide(5.0, 0.0), 4u);
  EXPECT_EQ(control.grows(), 2u);
}

TEST(SlotControllerTest, NeutralEpochsResetTheStreak) {
  SlotController control(Defaults(), 2);
  control.Decide(5.0, 0.0);   // grow signal, streak 1
  control.Decide(1.0, 0.5);   // neutral: streak dies
  control.Decide(5.0, 0.0);   // streak 1 again
  EXPECT_EQ(control.slots(), 2u);
  EXPECT_EQ(control.Decide(5.0, 0.0), 3u);
}

TEST(SlotControllerTest, AlternatingSignalsNeverAct) {
  SlotController control(Defaults(), 4);
  for (int epoch = 0; epoch < 20; ++epoch) {
    const uint64_t slots = (epoch % 2 == 0) ? control.Decide(5.0, 0.0)
                                            : control.Decide(0.0, 0.9);
    EXPECT_EQ(slots, 4u) << "epoch " << epoch;
  }
  EXPECT_EQ(control.grows(), 0u);
  EXPECT_EQ(control.shrinks(), 0u);
}

TEST(SlotControllerTest, BacklogWithIdleSlotsIsNotAGrowSignal) {
  // Queue depth alone must not grow the split: if slots already idle,
  // more of them cannot help.
  SlotController control(Defaults(), 2);
  for (int epoch = 0; epoch < 10; ++epoch) {
    EXPECT_EQ(control.Decide(5.0, 0.5), 2u);
  }
}

TEST(SlotControllerTest, BoundsAreNeverCrossed) {
  AdaptParams params = Defaults();
  params.hysteresis_epochs = 1;
  SlotController grow(params, 7);
  for (int epoch = 0; epoch < 10; ++epoch) grow.Decide(9.0, 0.0);
  EXPECT_EQ(grow.slots(), params.max_slots);

  SlotController shrink(params, 2);
  for (int epoch = 0; epoch < 10; ++epoch) shrink.Decide(0.0, 1.0);
  EXPECT_EQ(shrink.slots(), params.min_slots);
}

TEST(SlotControllerTest, ConvergesUnderStationaryLoad) {
  // A stationary grow signal moves at most one slot per hysteresis
  // window; once the signal clears, the count stays put forever.
  AdaptParams params = Defaults();
  params.hysteresis_epochs = 3;
  SlotController control(params, 1);
  for (int epoch = 0; epoch < 6; ++epoch) control.Decide(5.0, 0.0);
  EXPECT_EQ(control.slots(), 3u);
  for (int epoch = 0; epoch < 50; ++epoch) control.Decide(1.0, 0.5);
  EXPECT_EQ(control.slots(), 3u);
  EXPECT_EQ(control.grows(), 2u);
  EXPECT_EQ(control.shrinks(), 0u);
}

// A push-only rebuild re-applies the promotion map to the program the
// channel started with. Under rbo that is the bit-reversal seat program,
// which a Delta-chunked multi-disk program over the same layout is not:
// every switched-to program keeps the seat program's period, and each
// page is broadcast as often as the seat it was promoted into.
TEST(ControllerTest, PushOnlyRebuildRelabelsTheSeatProgram) {
  SimParams sim_params;  // the paper's D5 geometry
  sim_params.optimizer = "rbo";
  Result<ServerSchedule> schedule = BuildSchedule(sim_params);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const BroadcastProgram& seats = schedule->program;
  Result<BroadcastProgram> chunked =
      GenerateMultiDiskProgram(schedule->layout);
  ASSERT_TRUE(chunked.ok());
  ASSERT_NE(chunked->period(), seats.period());

  des::Simulation sim;
  BroadcastChannel channel(&sim, &seats);
  LossMonitor loss(seats.num_pages());
  AdaptParams params = Defaults();
  params.epoch_cycles = 1;
  params.max_promote = 4;
  constexpr uint64_t kEpochs = 4;
  std::unique_ptr<Controller> controller;
  uint64_t switches = 0;
  uint64_t mismatched_pages = 0;
  Controller::Hooks hooks;
  hooks.channel = &channel;
  hooks.loss = &loss;
  hooks.liveness = [&controller]() {
    return controller->stats().epochs < kEpochs;
  };
  hooks.on_switch = [&](const BroadcastProgram* program,
                        const pull::HybridLayout* hybrid, double) {
    ++switches;
    EXPECT_EQ(hybrid, nullptr);
    EXPECT_EQ(program->period(), seats.period());
    const PromotionMap& perm = controller->promotions();
    for (PageId p = 0; p < program->num_pages(); ++p) {
      if (program->Frequency(p) !=
          seats.Frequency(static_cast<PageId>(perm.SeatOf(p)))) {
        ++mismatched_pages;
      }
    }
  };
  controller = std::make_unique<Controller>(&sim, schedule->layout, params,
                                            hooks);
  // Fresh losses on the slowest disk before every epoch boundary, so
  // every epoch promotes and rebuilds.
  const double period = static_cast<double>(seats.period());
  for (uint64_t e = 0; e < kEpochs; ++e) {
    sim.ScheduleAt(period * static_cast<double>(e) + 1.0, [&loss, e]() {
      for (PageId p = 4000 + 10 * e; p < 4010 + 10 * e; ++p) {
        loss.OnFailedAttempt(p);
      }
    });
  }
  controller->Start();
  sim.Run();
  EXPECT_EQ(controller->stats().epochs, kEpochs);
  EXPECT_EQ(switches, kEpochs);
  EXPECT_EQ(controller->stats().rebuilds, kEpochs);
  EXPECT_EQ(mismatched_pages, 0u);
}

}  // namespace
}  // namespace bcast::adapt
