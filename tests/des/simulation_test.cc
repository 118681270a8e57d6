#include "des/simulation.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace bcast::des {
namespace {

TEST(SimulationTest, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
}

TEST(SimulationTest, ScheduledCallbackAdvancesClock) {
  Simulation sim;
  double seen = -1.0;
  sim.Schedule(5.0, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(SimulationTest, CallbacksFireInOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, NestedSchedulingUsesCurrentTime) {
  Simulation sim;
  double inner_time = -1.0;
  sim.Schedule(2.0, [&] {
    sim.Schedule(3.0, [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(inner_time, 5.0);
}

TEST(SimulationTest, ScheduleAtAbsoluteTime) {
  Simulation sim;
  double seen = -1.0;
  sim.ScheduleAt(4.5, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(seen, 4.5);
}

TEST(SimulationTest, CancelPreventsCallback) {
  Simulation sim;
  bool fired = false;
  const auto id = sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.CancelEvent(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, FullSizeCaptureRunsInline) {
  // The largest capture an event may hold: three 8-byte values, the
  // shape of the channel's and the pull server's callbacks.
  Simulation sim;
  struct Seen {
    double at = -1.0;
    uint64_t tag = 0;
  } seen;
  const uint64_t tag = 0x5eed5eed5eedULL;
  auto fn = [s = &sim, out = &seen, tag] {
    out->at = s->Now();
    out->tag = tag;
  };
  static_assert(sizeof(fn) == EventCallback::kCapacity);
  sim.Schedule(2.5, fn);
  // A cancelled copy never runs.
  EXPECT_TRUE(sim.CancelEvent(sim.Schedule(1.0, fn)));
  sim.Run();
  EXPECT_DOUBLE_EQ(seen.at, 2.5);
  EXPECT_EQ(seen.tag, tag);
  EXPECT_EQ(sim.events_dispatched(), 1u);
}

TEST(SimulationTest, RunUntilStopsAtBoundary) {
  Simulation sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.Schedule(t, [&fired, &sim] { fired.push_back(sim.Now()); });
  }
  sim.RunUntil(2.0);  // inclusive
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  sim.Run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulationTest, RunUntilAdvancesClockWhenIdle) {
  Simulation sim;
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulationTest, EventsDispatchedCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_dispatched(), 5u);
}

// --- Coroutine processes ---

Process CountTo(Simulation* sim, int n, double dt, std::vector<double>* log) {
  for (int i = 0; i < n; ++i) {
    co_await sim->Delay(dt);
    log->push_back(sim->Now());
  }
}

TEST(ProcessTest, DelayLoopAdvancesClock) {
  Simulation sim;
  std::vector<double> log;
  sim.Spawn(CountTo(&sim, 3, 2.5, &log));
  sim.Run();
  EXPECT_EQ(log, (std::vector<double>{2.5, 5.0, 7.5}));
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(ProcessTest, MultipleProcessesInterleave) {
  Simulation sim;
  std::vector<double> fast, slow;
  sim.Spawn(CountTo(&sim, 4, 1.0, &fast));
  sim.Spawn(CountTo(&sim, 2, 2.0, &slow));
  sim.Run();
  EXPECT_EQ(fast, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(slow, (std::vector<double>{2.0, 4.0}));
}

Process ZeroDelay(Simulation* sim, std::vector<int>* log, int id) {
  co_await sim->Delay(0.0);
  log->push_back(id);
}

TEST(ProcessTest, SpawnOrderIsStartOrderAtTimeZero) {
  Simulation sim;
  std::vector<int> log;
  sim.Spawn(ZeroDelay(&sim, &log, 1));
  sim.Spawn(ZeroDelay(&sim, &log, 2));
  sim.Spawn(ZeroDelay(&sim, &log, 3));
  sim.Run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

Process Forever(Simulation* sim) {
  for (;;) co_await sim->Delay(1.0);
}

TEST(ProcessTest, UnfinishedProcessReclaimedByDestructor) {
  // Must not leak or crash: the simulation destroys the suspended frame.
  Simulation sim;
  sim.Spawn(Forever(&sim));
  sim.RunUntil(10.0);
  EXPECT_EQ(sim.live_processes(), 1u);
}

TEST(ProcessTest, NeverSpawnedProcessIsReclaimed) {
  // A Process that is created and dropped without Spawn must free itself.
  Simulation sim;
  { Process p = Forever(&sim); }
  SUCCEED();
}

TEST(ProcessTest, LiveProcessCountTracksCompletion) {
  Simulation sim;
  std::vector<double> log;
  sim.Spawn(CountTo(&sim, 1, 1.0, &log));
  sim.Spawn(CountTo(&sim, 5, 1.0, &log));
  EXPECT_EQ(sim.live_processes(), 2u);
  sim.RunUntil(2.0);
  EXPECT_EQ(sim.live_processes(), 1u);
  sim.Run();
  EXPECT_EQ(sim.live_processes(), 0u);
}

// --- Tail resumption ---

// Suspends the caller until the test resumes it by hand.
struct ParkAwaiter {
  std::vector<std::coroutine_handle<>>* lot;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { lot->push_back(h); }
  void await_resume() const noexcept {}
};

Process DelayOnceWoken(Simulation* sim,
                       std::vector<std::coroutine_handle<>>* lot,
                       std::vector<double>* log) {
  co_await ParkAwaiter{lot};
  co_await sim->Delay(1.0);
  log->push_back(sim->Now());
}

Process ObserveOnceWoken(Simulation* sim,
                         std::vector<std::coroutine_handle<>>* lot,
                         double* now, uint64_t* pending) {
  co_await ParkAwaiter{lot};
  *now = sim->Now();
  *pending = sim->queue().size();
}

TEST(TailResumeTest, CallbackResumingSeveralProcessesQueuesTheirWakeups) {
  // One callback resumes A, then B. A delays at once; its wakeup is the
  // earliest thing pending, but the callback still has B to resume, so
  // A must not run ahead: B sees the callback's time, and A's wakeup
  // sits in the queue.
  Simulation sim;
  std::vector<std::coroutine_handle<>> lot;
  std::vector<double> a_log;
  double b_now = -1.0;
  uint64_t b_pending = 0;
  sim.Spawn(DelayOnceWoken(&sim, &lot, &a_log));
  sim.Spawn(ObserveOnceWoken(&sim, &lot, &b_now, &b_pending));
  sim.Schedule(5.0, [&lot] {
    ASSERT_EQ(lot.size(), 2u);
    const std::vector<std::coroutine_handle<>> woken = lot;
    lot.clear();
    for (std::coroutine_handle<> h : woken) h.resume();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(b_now, 5.0);
  EXPECT_EQ(b_pending, 1u);
  EXPECT_EQ(a_log, (std::vector<double>{6.0}));
  EXPECT_EQ(sim.events_dispatched(), 4u);  // 2 starts, the callback, A's wakeup
}

Process DelaysThenProbe(Simulation* sim, int n, EventQueue::EventId* probe) {
  for (int i = 0; i < n; ++i) co_await sim->Delay(1.0);
  *probe = sim->Schedule(1.0, [] {});
}

TEST(TailResumeTest, LoneProcessDelaysSkipTheQueue) {
  // Event ids are a pure function of the queue's push/pop history, so a
  // probe scheduled after 50 delays gets the same id as one scheduled
  // right after the start event only if no delay touched the queue.
  EventQueue::EventId reference = 0;
  {
    Simulation sim;
    sim.Spawn(DelaysThenProbe(&sim, 0, &reference));
    sim.Run();
  }
  Simulation sim;
  EventQueue::EventId probe = 0;
  sim.Spawn(DelaysThenProbe(&sim, 50, &probe));
  sim.Run();
  EXPECT_EQ(probe, reference);
  EXPECT_DOUBLE_EQ(sim.Now(), 51.0);
  EXPECT_EQ(sim.events_dispatched(), 52u);  // start, 50 wakeups, probe
}

TEST(TailResumeTest, HorizonKeepsTheNextWakeupQueued) {
  Simulation sim;
  sim.Spawn(Forever(&sim));
  sim.RunUntil(3.0);  // wakeups at exactly 3 still run
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
  EXPECT_EQ(sim.queue().size(), 1u);  // the wakeup at 4
  EXPECT_EQ(sim.events_dispatched(), 4u);
}

TEST(ProfilingTest, DisabledByDefaultAndZeroed) {
  Simulation sim;
  EXPECT_FALSE(sim.profiling());
  sim.Schedule(1.0, [] {});
  sim.Run();
  EXPECT_EQ(sim.profile().total_dispatches(), 0u);
}

TEST(ProfilingTest, CountsMatchDispatchesPerKind) {
  Simulation sim;
  sim.EnableProfiling();
  sim.Schedule(1.0, [] {});  // kGeneric
  sim.Schedule(2.0, [] {}, EventKind::kSlot);
  sim.Schedule(3.0, [] {}, EventKind::kSlot);
  sim.Schedule(4.0, [] {}, EventKind::kController);
  sim.Run();
  const DesProfile& profile = sim.profile();
  EXPECT_EQ(profile.total_dispatches(), sim.events_dispatched());
  EXPECT_EQ(
      profile.kinds[static_cast<size_t>(EventKind::kGeneric)].dispatches,
      1u);
  EXPECT_EQ(profile.kinds[static_cast<size_t>(EventKind::kSlot)].dispatches,
            2u);
  EXPECT_EQ(
      profile.kinds[static_cast<size_t>(EventKind::kController)].dispatches,
      1u);

  // A lone process's delays continue inline; each still counts as one
  // dispatched kDelay event.
  Simulation loop;
  loop.EnableProfiling();
  std::vector<double> log;
  loop.Spawn(CountTo(&loop, 20, 1.0, &log));
  loop.Run();
  const DesProfile& inlined = loop.profile();
  EXPECT_EQ(inlined.total_dispatches(), loop.events_dispatched());
  EXPECT_EQ(loop.events_dispatched(), 21u);
  EXPECT_EQ(
      inlined.kinds[static_cast<size_t>(EventKind::kDelay)].dispatches, 20u);
  EXPECT_EQ(
      inlined.kinds[static_cast<size_t>(EventKind::kProcessStart)].dispatches,
      1u);
}

TEST(ProfilingTest, ProfilingDoesNotChangeEventOrder) {
  const auto run = [](bool profiled) {
    Simulation sim;
    if (profiled) sim.EnableProfiling();
    std::vector<int> order;
    sim.Schedule(2.0, [&order] { order.push_back(2); });
    sim.Schedule(1.0, [&order] { order.push_back(1); }, EventKind::kSlot);
    sim.Schedule(1.0, [&order] { order.push_back(3); });
    sim.Run();
    return order;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ProfilingTest, MergeAccumulatesElementWise) {
  DesProfile a;
  a.kinds[0].dispatches = 3;
  a.kinds[0].cpu_ns = 100;
  DesProfile b;
  b.kinds[0].dispatches = 2;
  b.kinds[1].dispatches = 5;
  a.Merge(b);
  EXPECT_EQ(a.kinds[0].dispatches, 5u);
  EXPECT_EQ(a.kinds[1].dispatches, 5u);
  EXPECT_EQ(a.total_dispatches(), 10u);
  EXPECT_EQ(a.total_cpu_ns(), 100u);
}

TEST(EventKindTest, EveryKindHasAName) {
  for (size_t i = 0; i < kNumEventKinds; ++i) {
    const char* name = EventKindName(static_cast<EventKind>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  EXPECT_STREQ(EventKindName(EventKind::kSlot), "slot");
  EXPECT_STREQ(EventKindName(EventKind::kController), "controller");
}

// --- Lanes -------------------------------------------------------------

TEST(LaneTest, RunLanesRunsEachLaneInTurnOnItsOwnClock) {
  // An event captures at most 24 bytes, so each callback holds one
  // pointer to this state plus its lane, tag index and time.
  struct Log {
    Simulation sim{3};
    std::vector<std::string> tags;
    std::vector<std::string> order;
  } log;
  Simulation& sim = log.sim;
  const std::vector<std::string>& order = log.order;
  auto at = [&log](uint32_t lane, double t, const std::string& tag) {
    log.sim.EnterLane(lane);
    log.tags.push_back(tag);
    const auto index = static_cast<uint32_t>(log.tags.size() - 1);
    log.sim.ScheduleAt(t, [ctx = &log, lane, index, t] {
      EXPECT_EQ(ctx->sim.lane(), lane);
      EXPECT_DOUBLE_EQ(ctx->sim.Now(), t);
      ctx->order.push_back(ctx->tags[index]);
    });
  };
  at(0, 5.0, "a5");
  at(0, 9.0, "a9");
  at(1, 2.0, "b2");
  // Lane order, not time order: lane 0 runs to the end before lane 1.
  sim.RunLanes(std::numeric_limits<double>::infinity());
  EXPECT_EQ(order, (std::vector<std::string>{"a5", "a9", "b2"}));
  EXPECT_DOUBLE_EQ(sim.frontier(), 9.0);
  EXPECT_EQ(sim.events_dispatched(), 3u);
}

TEST(LaneTest, RunLanesStopsEveryLaneAtTheBound) {
  Simulation sim(2);
  std::vector<std::string> order;
  for (uint32_t lane : {0u, 1u}) {
    sim.EnterLane(lane);
    for (double t : {1.0 + lane, 3.0 + lane}) {
      sim.ScheduleAt(t, [&order, lane, t] {
        order.push_back(std::to_string(lane) + "@" +
                        std::to_string(static_cast<int>(t)));
      });
    }
  }
  sim.RunLanes(2.5);
  EXPECT_EQ(order, (std::vector<std::string>{"0@1", "1@2"}));
  // Every lane's clock is at the bound, entered or not.
  for (uint32_t lane : {0u, 1u}) {
    sim.EnterLane(lane);
    EXPECT_DOUBLE_EQ(sim.Now(), 2.5);
  }
  sim.RunLanes(10.0);
  EXPECT_EQ(order, (std::vector<std::string>{"0@1", "1@2", "0@3", "1@4"}));
}

TEST(LaneTest, LanesWithNothingDueAreNotEntered) {
  Simulation sim(4);
  sim.EnterLane(2);
  sim.ScheduleAt(7.0, [] {});
  std::vector<uint32_t> entered;
  sim.OnLaneSwitch([&](uint32_t, uint32_t to) { entered.push_back(to); });
  sim.EnterLane(0);
  entered.clear();
  sim.RunLanes(5.0);
  EXPECT_TRUE(entered.empty());
  sim.RunLanes(8.0);
  EXPECT_EQ(entered, (std::vector<uint32_t>{2}));
}

TEST(LaneTest, SwitchHookSeesEveryLaneChange) {
  Simulation sim(3);
  std::vector<std::pair<uint32_t, uint32_t>> switches;
  sim.OnLaneSwitch([&](uint32_t from, uint32_t to) {
    switches.emplace_back(from, to);
  });
  sim.EnterLane(2);
  sim.EnterLane(2);  // no change, no call
  sim.EnterLane(1);
  EXPECT_EQ(switches, (std::vector<std::pair<uint32_t, uint32_t>>{
                          {0, 2}, {2, 1}}));
}

TEST(LaneTest, CancelFindsTheEventsLane) {
  Simulation sim(2);
  sim.EnterLane(1);
  bool fired = false;
  const auto id = sim.ScheduleAt(3.0, [&] { fired = true; });
  sim.EnterLane(0);
  EXPECT_TRUE(sim.CancelEvent(id));
  sim.RunLanes(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_dispatched(), 0u);
}

TEST(LaneTest, LiveProcessesCountPerLaneAndInTotal) {
  Simulation sim(2);
  auto proc = [&](double d) -> Process { co_await sim.Delay(d); };
  sim.Spawn(proc(1.0));
  sim.EnterLane(1);
  sim.Spawn(proc(2.0));
  sim.Spawn(proc(3.0));
  EXPECT_EQ(sim.lane_live_processes(), 2u);
  EXPECT_EQ(sim.live_processes(), 3u);
  sim.EnterLane(0);
  EXPECT_EQ(sim.lane_live_processes(), 1u);
  sim.RunLanes(1.5);
  EXPECT_EQ(sim.live_processes(), 2u);
  sim.EnterLane(1);
  EXPECT_EQ(sim.lane_live_processes(), 2u);
  sim.RunLanes(std::numeric_limits<double>::infinity());
  EXPECT_EQ(sim.live_processes(), 0u);
  EXPECT_EQ(sim.lane_live_processes(), 0u);
}

TEST(LaneTest, FinishedLanesShareThePayloadSlab) {
  // Many lanes run start to finish one after another: the payload slab
  // holds what is pending at once, not what every lane ever scheduled.
  constexpr uint32_t kLanes = 500;
  Simulation sim(kLanes);
  auto proc = [&]() -> Process {
    for (int i = 0; i < 20; ++i) co_await sim.Delay(1.0);
  };
  for (uint32_t lane = 0; lane < kLanes; ++lane) {
    sim.EnterLane(lane);
    sim.Spawn(proc());
  }
  sim.RunLanes(std::numeric_limits<double>::infinity());
  EXPECT_EQ(sim.events_dispatched(), kLanes * 21u);
  EXPECT_LE(sim.queue().allocated_slots(), kLanes + 2u);
}

TEST(SimulationDeathTest, NegativeDelayDies) {
  Simulation sim;
  EXPECT_DEATH(sim.Schedule(-1.0, [] {}), "Check failed");
}

TEST(SimulationDeathTest, ScheduleAtPastDies) {
  Simulation sim;
  sim.Schedule(5.0, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(1.0, [] {}), "Check failed");
}

}  // namespace
}  // namespace bcast::des
