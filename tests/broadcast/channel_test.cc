#include "broadcast/channel.h"

#include <gtest/gtest.h>

#include <vector>

#include "broadcast/disk_config.h"
#include "broadcast/generator.h"
#include "pull/hybrid.h"
#include "pull/pull_server.h"

namespace bcast {
namespace {

// A B A C multi-disk program (A fast disk, B/C slow disk).
BroadcastProgram Abac() {
  auto layout = MakeLayout({1, 2}, {2, 1});
  auto program = GenerateMultiDiskProgram(*layout);
  EXPECT_TRUE(program.ok());
  return std::move(*program);
}

des::Process FetchSequence(des::Simulation* sim, BroadcastChannel* channel,
                           std::vector<PageId> pages,
                           std::vector<double>* completion_times,
                           std::vector<double>* waits) {
  for (PageId p : pages) {
    const double wait = co_await channel->WaitForPage(p);
    completion_times->push_back(sim->Now());
    waits->push_back(wait);
  }
}

TEST(ChannelTest, WaitsForSlotEnd) {
  des::Simulation sim;
  BroadcastProgram program = Abac();
  BroadcastChannel channel(&sim, &program);
  std::vector<double> times, waits;
  // From t=0: A occupies slot 0 => received at 1.0.
  sim.Spawn(FetchSequence(&sim, &channel, {0}, &times, &waits));
  sim.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0}));
  EXPECT_EQ(waits, (std::vector<double>{1.0}));
}

TEST(ChannelTest, SequentialFetchesFollowSchedule) {
  des::Simulation sim;
  BroadcastProgram program = Abac();
  BroadcastChannel channel(&sim, &program);
  std::vector<double> times, waits;
  // A at slots 0,2; B at 1; C at 3.
  // Fetch C: done at 4. Then B: next B starts slot 5 -> done 6.
  // Then A: next A starts slot 6 -> done 7.
  sim.Spawn(FetchSequence(&sim, &channel, {2, 1, 0}, &times, &waits));
  sim.Run();
  EXPECT_EQ(times, (std::vector<double>{4.0, 6.0, 7.0}));
}

TEST(ChannelTest, MultipleClientsShareTheBroadcast) {
  // Two clients waiting for the same page complete at the same instant —
  // a broadcast never contends.
  des::Simulation sim;
  BroadcastProgram program = Abac();
  BroadcastChannel channel(&sim, &program);
  std::vector<double> t1, t2, w1, w2;
  sim.Spawn(FetchSequence(&sim, &channel, {2}, &t1, &w1));
  sim.Spawn(FetchSequence(&sim, &channel, {2}, &t2, &w2));
  sim.Run();
  // C airs in slot 3: both clients receive it at 4 after waiting 4.
  EXPECT_EQ(t1, (std::vector<double>{4.0}));
  EXPECT_EQ(t2, (std::vector<double>{4.0}));
  EXPECT_EQ(w1, (std::vector<double>{4.0}));
  EXPECT_EQ(w2, (std::vector<double>{4.0}));
}

TEST(ChannelTest, NextArrivalStartTracksClock) {
  des::Simulation sim;
  BroadcastProgram program = Abac();
  BroadcastChannel channel(&sim, &program);
  EXPECT_DOUBLE_EQ(channel.NextArrivalStart(1), 1.0);
  sim.RunUntil(2.0);
  EXPECT_DOUBLE_EQ(channel.NextArrivalStart(1), 5.0);
}

// Waits for \p page from \p start on; records when it ended and whether a
// pull slot delivered it.
des::Process WaitFrom(des::Simulation* sim, BroadcastChannel* channel,
                      double start, PageId page, double* done,
                      bool* via_pull) {
  co_await sim->Delay(start);
  co_await channel->WaitForPage(page);
  *done = sim->Now();
  *via_pull = channel->last_wait_via_pull();
}

TEST(ChannelTest, PullSlotReachesOnlyWaitsBegunByItsStart) {
  // A page is received only from a slot heard whole. A wait that begins
  // at a pull slot's start hears it; one that begins halfway through
  // does not, and stays registered for the next pull of the page.
  auto hybrid =
      pull::GenerateHybridProgram(*MakeDeltaLayout({5, 20, 25}, 2), 2);
  ASSERT_TRUE(hybrid.ok());
  des::Simulation sim;
  BroadcastChannel channel(&sim, &hybrid->program);
  pull::PullServer server(&sim, hybrid->layout, pull::PullParams{});
  channel.AttachPullServer(&server);

  const double slot = hybrid->layout.NextPullSlotStart(1.0);
  const double next_slot = hybrid->layout.NextPullSlotStart(slot + 1.0);
  // The page whose push arrival lies furthest past the half-slot start:
  // it must not come by push before the second pull slot ends.
  PageId page = 0;
  for (PageId p = 1; p < hybrid->program.num_pages(); ++p) {
    if (hybrid->program.NextArrivalEnd(p, slot + 0.5) >
        hybrid->program.NextArrivalEnd(page, slot + 0.5)) {
      page = p;
    }
  }
  ASSERT_GT(hybrid->program.NextArrivalEnd(page, slot + 0.5),
            next_slot + 1.0);

  // Each request is served in the first pull slot starting after it.
  sim.ScheduleAt(1.0, [&] { server.Enqueue(page, sim.Now()); });
  sim.ScheduleAt(slot + 1.0, [&] { server.Enqueue(page, sim.Now()); });
  double at_start_done = 0.0;
  double mid_slot_done = 0.0;
  bool at_start_pull = false;
  bool mid_slot_pull = false;
  sim.Spawn(WaitFrom(&sim, &channel, slot, page, &at_start_done,
                     &at_start_pull));
  sim.Spawn(WaitFrom(&sim, &channel, slot + 0.5, page, &mid_slot_done,
                     &mid_slot_pull));
  sim.Run();

  EXPECT_DOUBLE_EQ(at_start_done, slot + 1.0);
  EXPECT_TRUE(at_start_pull);
  EXPECT_DOUBLE_EQ(mid_slot_done, next_slot + 1.0);
  EXPECT_TRUE(mid_slot_pull);
  EXPECT_EQ(server.stats().serviced_pages, 2u);
  EXPECT_EQ(server.stats().pull_deliveries, 2u);
}

}  // namespace
}  // namespace bcast
