// Process-level faults: crash–restart, server stalls, slot jitter, and
// version bumps. Covers the window generator's determinism, the backoff
// cap boundary, end-to-end semantics of each axis (runs complete, books
// balance, the right counters move), and the doze+loss+deadline liveness
// property over randomized fault seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "client/mapping.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/multi_client.h"
#include "core/simulator.h"
#include "fault/fault_model.h"
#include "fault/process_faults.h"
#include "fault/recovery.h"
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

// --- FaultWindows -----------------------------------------------------

TEST(FaultWindowsTest, SameSeedSameWindows) {
  const Rng master(42);
  fault::FaultWindows a(fault::FaultStream(master, 3, fault::Purpose::kCrash),
                        100.0, 10.0);
  fault::FaultWindows b(fault::FaultStream(master, 3, fault::Purpose::kCrash),
                        100.0, 10.0);
  for (double t = 0.0; t < 5000.0; t += 7.0) {
    EXPECT_EQ(a.DownDuring(t, t + 3.0), b.DownDuring(t, t + 3.0));
    EXPECT_EQ(a.ClearTime(t), b.ClearTime(t));
    EXPECT_EQ(a.CountUpTo(t), b.CountUpTo(t));
  }
}

TEST(FaultWindowsTest, QueryOrderDoesNotChangeWindows) {
  // The lazy horizon extension must generate a window exactly once no
  // matter which query materializes it: probing far ahead first must
  // agree with probing incrementally.
  const Rng master(7);
  fault::FaultWindows ahead(
      fault::FaultStream(master, 0, fault::Purpose::kStall), 50.0, 5.0);
  fault::FaultWindows step(
      fault::FaultStream(master, 0, fault::Purpose::kStall), 50.0, 5.0);
  (void)ahead.CountUpTo(10000.0);  // materialize everything up front
  for (double t = 0.0; t < 10000.0; t += 13.0) {
    EXPECT_EQ(ahead.DownDuring(t, t + 1.0), step.DownDuring(t, t + 1.0));
  }
  EXPECT_EQ(ahead.CountUpTo(10000.0), step.CountUpTo(10000.0));
}

TEST(FaultWindowsTest, ForgettingKeepsAnswersAndBoundsMemory) {
  // A client's queries only move forward, so windows behind its clock
  // can go: across 10^6 monotone queries the forgetting schedule answers
  // exactly like one that keeps every window, while holding only the
  // few windows ahead of the floor.
  const Rng master(5);
  fault::FaultWindows kept(
      fault::FaultStream(master, 2, fault::Purpose::kCrash), 40.0, 15.0);
  fault::FaultWindows forgetful(
      fault::FaultStream(master, 2, fault::Purpose::kCrash), 40.0, 15.0);
  size_t most_retained = 0;
  double t = 0.0;
  for (int i = 0; i < 1000000; ++i) {
    t += 0.75;
    forgetful.ForgetBefore(t - 1.0);
    ASSERT_EQ(kept.DownDuring(t, t + 1.0), forgetful.DownDuring(t, t + 1.0));
    ASSERT_EQ(kept.ClearTime(t), forgetful.ClearTime(t));
    ASSERT_EQ(kept.CountUpTo(t + 2.0), forgetful.CountUpTo(t + 2.0));
    most_retained = std::max(most_retained, forgetful.retained());
  }
  // About 13,600 windows opened by the end; the forgetful copy never
  // held more than a handful of them at once.
  EXPECT_GT(kept.retained(), 13000u);
  EXPECT_LE(most_retained, 4u);
}

TEST(FaultWindowsDeathTest, QueryBelowTheFloorDies) {
  fault::FaultWindows w(
      fault::FaultStream(Rng(3), 0, fault::Purpose::kCrash), 40.0, 5.0);
  w.ForgetBefore(100.0);
  w.ForgetBefore(50.0);  // a lower floor leaves the floor where it is
  EXPECT_DEATH(w.DownDuring(99.0, 101.0), "below the floor");
  EXPECT_DEATH(w.ClearTime(99.0), "below the floor");
  EXPECT_DEATH(w.CountUpTo(99.0), "below the floor");
}

TEST(ServerFaultPlaneTest, CappedFloorServesClientsThatStartLater) {
  // Population lanes share one plane but run one after another: the
  // first runs far ahead and promises only about its own clock, and the
  // next still asks from the round start. With the floor capped there,
  // the later client's answers are those of a fresh plane.
  fault::FaultParams params;
  params.process.stall_every = 50.0;
  params.process.stall_len = 5.0;
  auto shared = fault::MakeServerFaultPlane(params);
  auto fresh = fault::MakeServerFaultPlane(params);
  ASSERT_NE(shared, nullptr);
  shared->CapFloor(-1.0);
  for (double t = 0.0; t < 5000.0; t += 7.0) {
    shared->StalledDuring(t, t + 1.0);
    shared->ForgetBefore(t - 1.0);
  }
  for (double t = 0.0; t < 5000.0; t += 3.0) {
    ASSERT_EQ(shared->StalledDuring(t, t + 1.0),
              fresh->StalledDuring(t, t + 1.0))
        << "t=" << t;
  }
}

TEST(ServerFaultPlaneDeathTest, UncappedFloorRejectsALaterClient) {
  // Without the cap, the first client's promise binds the next one.
  fault::FaultParams params;
  params.process.stall_every = 50.0;
  params.process.stall_len = 5.0;
  auto plane = fault::MakeServerFaultPlane(params);
  ASSERT_NE(plane, nullptr);
  plane->StalledDuring(4000.0, 4001.0);
  plane->ForgetBefore(3999.0);
  EXPECT_DEATH(plane->StalledDuring(10.0, 11.0), "below the floor");
}

TEST(FaultWindowsTest, ClearTimeIsOutsideEveryWindow) {
  const Rng master(11);
  fault::FaultWindows w(fault::FaultStream(master, 1, fault::Purpose::kCrash),
                        30.0, 20.0);
  for (double t = 0.0; t < 3000.0; t += 1.7) {
    const double clear = w.ClearTime(t);
    EXPECT_GE(clear, t);
    EXPECT_FALSE(w.DownDuring(clear, clear));
    if (clear == t) {
      EXPECT_FALSE(w.DownDuring(t, t));
    }
  }
}

TEST(FaultWindowsTest, CountIsMonotoneAndGrows) {
  const Rng master(3);
  fault::FaultWindows w(fault::FaultStream(master, 2, fault::Purpose::kCrash),
                        40.0, 0.0);  // zero-width: counted, never down
  uint64_t last = 0;
  for (double t = 100.0; t <= 10000.0; t += 100.0) {
    const uint64_t n = w.CountUpTo(t);
    EXPECT_GE(n, last);
    EXPECT_FALSE(w.DownDuring(0.0, t));  // zero-width windows never down
    last = n;
  }
  EXPECT_GT(last, 0u);
}

// --- Backoff cap boundary (the overflow fix) --------------------------

TEST(BackoffPolicyTest, SaturatesAtCapWithoutOverflow) {
  fault::BackoffPolicy backoff(1.0, 2.0, 64.0);
  double last = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double d = backoff.Next();
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_GE(d, last);
    EXPECT_LE(d, 64.0);
    last = d;
  }
  EXPECT_EQ(last, 64.0);
  EXPECT_EQ(backoff.peek(), 64.0);
}

TEST(BackoffPolicyTest, ExtremeCapNeverFormsInfinity) {
  // Near DBL_MAX the pre-fix multiply produced +inf before min() clipped
  // it; the saturation guard must pin to the cap instead.
  const double cap = std::numeric_limits<double>::max();
  fault::BackoffPolicy backoff(1.0, 1e308, cap);
  for (int i = 0; i < 10; ++i) {
    const double d = backoff.Next();
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_LE(d, cap);
  }
  EXPECT_EQ(backoff.peek(), cap);
  backoff.Reset();
  EXPECT_EQ(backoff.peek(), 1.0);
}

TEST(BackoffPolicyTest, CapBelowBasePinsToCap) {
  fault::BackoffPolicy backoff(8.0, 2.0, 4.0);
  (void)backoff.Next();
  // Growth can never exceed the cap even when the base starts above it.
  EXPECT_LE(backoff.peek(), 8.0);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(std::isfinite(backoff.Next()));
}

// --- End-to-end axis semantics ----------------------------------------

TEST(ProcessFaultTest, CrashRunCompletesAndCounts) {
  SimParams params = SmallParams();
  params.fault.process.crash_every = 2000.0;
  params.fault.process.crash_down = 50.0;
  auto a = RunSimulation(params);
  auto b = RunSimulation(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->faults_active);
  EXPECT_EQ(a->metrics.requests(), params.measured_requests);
  EXPECT_GT(a->faults.crashes, 0u);
  // Crashes are state loss, never request loss; and identical runs are
  // bit-identical.
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->faults.crashes, b->faults.crashes);
  EXPECT_EQ(a->end_time, b->end_time);
}

TEST(ProcessFaultTest, ColdRestartHurtsAtLeastAsMuchAsWarm) {
  SimParams warm = SmallParams();
  warm.fault.process.crash_every = 1500.0;
  warm.fault.process.crash_down = 20.0;
  SimParams cold = warm;
  cold.fault.process.crash_cold = true;
  auto w = RunSimulation(warm);
  auto c = RunSimulation(cold);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(c.ok());
  // Same crash schedule (same fault stream), but the cold variant
  // flushes the cache each time, so it can only lose hits — and the
  // longer run it causes can only encounter *more* crash windows.
  EXPECT_GT(w->faults.crashes, 0u);
  EXPECT_GE(c->faults.crashes, w->faults.crashes);
  EXPECT_LE(c->metrics.cache_hits(), w->metrics.cache_hits());
  EXPECT_GE(c->end_time, w->end_time);
}

TEST(ProcessFaultTest, StallsDelayButNeverDrop) {
  SimParams clean = SmallParams();
  SimParams stalled = SmallParams();
  stalled.fault.process.stall_every = 1000.0;
  stalled.fault.process.stall_len = 60.0;
  auto a = RunSimulation(clean);
  auto b = RunSimulation(stalled);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->metrics.requests(), a->metrics.requests());
  EXPECT_GT(b->faults.stall_missed_arrivals, 0u);
  EXPECT_GE(b->metrics.mean_response_time(), a->metrics.mean_response_time());

  // Stalls keep the radio on: no doze accounting moves.
  EXPECT_EQ(b->faults.doze_missed_arrivals, 0u);
}

TEST(ProcessFaultTest, JitterIsLatencyNotLoss) {
  SimParams clean = SmallParams();
  SimParams jittery = SmallParams();
  jittery.fault.process.slot_jitter = 0.9;
  auto a = RunSimulation(clean);
  auto b = RunSimulation(jittery);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.requests(), b->metrics.requests());
  EXPECT_EQ(a->metrics.cache_hits(), b->metrics.cache_hits());
  EXPECT_GE(b->metrics.mean_response_time(), a->metrics.mean_response_time());
  EXPECT_EQ(b->faults.lost, 0u);
}

TEST(ProcessFaultTest, VersionBumpsAreCountedAndHarmless) {
  SimParams params = SmallParams();
  params.fault.process.version_every = 800.0;
  auto r = RunSimulation(params);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->faults_active);
  EXPECT_GT(r->faults.version_bumps, 0u);
  EXPECT_EQ(r->metrics.requests(), params.measured_requests);
}

TEST(VersionCadenceTest, StarvingCadenceFailsSetup) {
  // SmallParams broadcasts 500 pages in an 1100-slot cycle; the slowest
  // disk's last pages first air near the cycle's end. A bump every 600
  // slots restarts the cycle before they can air.
  SimParams params = SmallParams();
  params.access_range = 500;
  params.fault.process.version_every = 600.0;
  auto single = RunSimulation(params);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(single.status().message().find("first airs"), std::string::npos)
      << single.status().ToString();
  // The population engine refuses at setup too (it would hang).
  const MultiClientParams pop = PopulationFromSimParams(params, 3);
  auto population = pop::RunPopulationSimulation(pop, pop::PopParams{});
  ASSERT_FALSE(population.ok());
  EXPECT_EQ(population.status().code(), StatusCode::kInvalidArgument);
  // The same cadence over pages that all air early in the cycle runs.
  params.access_range = 100;
  auto hot = RunSimulation(params);
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();
  EXPECT_EQ(hot->metrics.requests(), params.measured_requests);
}

TEST(VersionCadenceTest, BoundIsFirstAirPlusOneSlotPlusJitter) {
  SimParams params = SmallParams();
  Result<ServerSchedule> schedule = BuildSchedule(params);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const BroadcastProgram& program = schedule->program;
  Result<Mapping> identity =
      Mapping::Make(schedule->layout, 0, 0.0, Rng(1));
  ASSERT_TRUE(identity.ok());
  const uint64_t pages = program.num_pages();
  double latest = 0.0;
  for (PageId p = 0; p < pages; ++p) {
    latest = std::max(latest, program.NextArrivalStart(p, 0.0));
  }
  fault::ProcessFaultParams process;
  auto check = [&](double every, double jitter) {
    process.version_every = every;
    process.slot_jitter = jitter;
    return CheckVersionCadence(process, program, *identity, pages, 0);
  };
  EXPECT_TRUE(check(0.0, 0.0).ok());  // bumps off
  EXPECT_TRUE(check(latest + 1.0, 0.0).ok());
  EXPECT_FALSE(check(latest + 0.5, 0.0).ok());
  EXPECT_FALSE(check(latest + 1.0, 0.5).ok());
  EXPECT_TRUE(check(latest + 1.5, 0.5).ok());
}

TEST(ProcessFaultTest, AllAxesComposedStillCompletes) {
  // Crash-during-stall-during-version-bump with loss and doze on top:
  // the composition must terminate with the full request count.
  SimParams params = SmallParams();
  params.fault.loss = 0.1;
  params.fault.burst_len = 3.0;
  params.fault.doze_for = 15.0;
  params.fault.awake_for = 80.0;
  params.fault.process.crash_every = 2500.0;
  params.fault.process.crash_down = 40.0;
  params.fault.process.crash_cold = true;
  params.fault.process.stall_every = 1800.0;
  params.fault.process.stall_len = 50.0;
  params.fault.process.slot_jitter = 0.5;
  params.fault.process.version_every = 2000.0;
  auto a = RunSimulation(params);
  auto b = RunSimulation(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.requests(), params.measured_requests);
  EXPECT_EQ(a->metrics.response_time().sum(),
            b->metrics.response_time().sum());
  EXPECT_EQ(a->end_time, b->end_time);
  EXPECT_GT(a->faults.crashes, 0u);
  EXPECT_GT(a->faults.version_bumps, 0u);
}

TEST(ProcessFaultTest, MultiClientCrashesAreIndependentPerClient) {
  MultiClientParams params;
  params.disk_sizes = {50, 200, 250};
  params.delta = 2;
  params.measured_requests = 600;
  for (uint64_t shift : {0ull, 100ull, 200ull}) {
    ClientSpec spec;
    spec.access_range = 100;
    spec.region_size = 5;
    spec.cache_size = 20;
    spec.interest_shift = shift;
    params.clients.push_back(spec);
  }
  params.fault.process.crash_every = 1500.0;
  params.fault.process.crash_down = 30.0;
  auto a = pop::RunPopulationSimulation(params, pop::PopParams{});
  auto b = pop::RunPopulationSimulation(params, pop::PopParams{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->faults_active);
  EXPECT_GT(a->faults.crashes, 0u);
  EXPECT_EQ(a->faults.crashes, b->faults.crashes);
  ASSERT_EQ(a->per_client.size(), b->per_client.size());
  for (size_t c = 0; c < a->per_client.size(); ++c) {
    EXPECT_EQ(a->per_client[c].mean_response_time(),
              b->per_client[c].mean_response_time())
        << "client " << c;
  }
}

TEST(ProcessFaultTest, HorizonTurnsHangsIntoErrors) {
  // An absurdly tight horizon must yield a Status error, not an abort —
  // the chaos harness's no-hang invariant depends on this.
  SimParams params = SmallParams();
  SimObservers observers;
  observers.horizon = 10.0;
  auto r = RunSimulation(params, observers);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("no-hang"), std::string::npos);
}

TEST(ProcessFaultTest, CommensurateDozeCycleStillCompletes) {
  // A duty cycle whose length exactly equals the program period is the
  // adversarial phase-lock: every arrival of a given page lands at the
  // same position in the cycle forever, so pages whose slot falls into
  // the doze stretch would never be heard. Panic listening (a deadline
  // expiry waives dozing for the rest of the wait) is what keeps this
  // live; without it the run blows through any horizon.
  SimParams params = SmallParams();
  // Only the slowest disk can lock: a frequency-f page airs at f distinct
  // phases of the cycle, so reach into the freq-1 tail of the database.
  params.access_range = 500;
  Result<ServerSchedule> schedule = BuildSchedule(params);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const double period = static_cast<double>(schedule->program.period());
  params.fault.doze_for = period / 2.0;
  params.fault.awake_for = period - params.fault.doze_for;
  SimObservers observers;
  observers.horizon = 4e6;
  auto r = RunSimulation(params, observers);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->metrics.requests(), params.measured_requests);
  // The starved pages are rescued through the deadline machinery.
  EXPECT_GT(r->faults.deadline_expiries, 0u);
}

// --- Liveness property: doze + bursty loss + deadlines ----------------

TEST(ProcessFaultProperty, DozeBurstyLossAlwaysResyncsWithinKCycles) {
  // Over randomized fault seeds the composition of a radio duty cycle,
  // bursty loss, and deadline expiry must never deadlock (the horizon
  // converts a hang into a test failure) and every resync episode must
  // complete within a few major cycles.
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SimParams params = SmallParams();
    params.measured_requests = 500;
    params.fault.loss = 0.25;
    params.fault.burst_len = 4.0;
    params.fault.doze_for = 30.0;
    params.fault.awake_for = 60.0;
    params.fault.deadline_arrivals = 4;
    params.fault.fault_seed = seed * 7919;
    SimObservers observers;
    observers.horizon = 4e6;
    auto r = RunSimulation(params, observers);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    EXPECT_EQ(r->metrics.requests(), params.measured_requests)
        << "seed " << seed;
    if (r->faults.resync_slots.count() > 0) {
      // An episode ends when one specific page is finally received
      // intact; each extra cycle is another independent doze-or-loss
      // coin flip over that page's slot, so the tail is geometric.
      // Typical episodes resolve within a cycle or two; the bound
      // catches deadlock and unbounded drift, not the lucky tail.
      const double k = 20.0;
      EXPECT_LE(r->faults.resync_slots.max(),
                k * static_cast<double>(r->period))
          << "seed " << seed;
      EXPECT_LE(r->faults.resync_slots.Quantile(0.9),
                4.0 * static_cast<double>(r->period))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace bcast
