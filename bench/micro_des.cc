// Microbenchmarks: the DES kernel's event throughput — raw callbacks,
// cancellation, coroutine delay loops, the timeout-churn steady state,
// and pure push/pop at fixed pending-set sizes.

#include <benchmark/benchmark.h>

#include <deque>

#include "common/rng.h"
#include "des/event_queue.h"
#include "des/simulation.h"

namespace bcast {
namespace {

void BM_ScheduleAndRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    des::Simulation sim;
    for (int i = 0; i < batch; ++i) {
      sim.Schedule(static_cast<double>(i % 97), [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleAndRun)->Arg(1000)->Arg(10000);

// As BM_ScheduleAndRun, with the largest capture an event may hold
// (three 8-byte values, like the channel's and pull server's callbacks).
void BM_ScheduleAndRunFullCapture(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  uint64_t sum = 0;
  for (auto _ : state) {
    des::Simulation sim;
    for (int i = 0; i < batch; ++i) {
      const double t = static_cast<double>(i % 97);
      sim.Schedule(t, [out = &sum, i = static_cast<uint64_t>(i), t] {
        *out += i + static_cast<uint64_t>(t);
      });
    }
    sim.Run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleAndRunFullCapture)->Arg(1000)->Arg(10000);

void BM_ScheduleCancel(benchmark::State& state) {
  des::Simulation sim;
  for (auto _ : state) {
    const auto id = sim.Schedule(1e12, [] {});
    benchmark::DoNotOptimize(sim.CancelEvent(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleCancel);

des::Process DelayLoop(des::Simulation* sim, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim->Delay(1.0);
  }
}

void BM_CoroutineDelays(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    des::Simulation sim;
    sim.Spawn(DelayLoop(&sim, n));
    sim.Run();
    benchmark::DoNotOptimize(sim.Now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CoroutineDelays)->Arg(1000)->Arg(10000);

// The timeout-churn steady state: every iteration schedules one work
// event and one far-future timeout, cancels the timeout scheduled
// `window` iterations ago (deadlines are almost always met), and pops
// the earliest work event. This is the pull-client/fault-recovery
// pattern that dominated profiles: under the tombstone kernel every
// cancelled timeout stayed in the heap (and two hash sets) until the
// clock reached it — never — so the heap grew without bound and every
// push paid O(log garbage).
void BM_ChurnMix(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  des::EventQueue q;
  Rng rng(7);
  std::deque<uint64_t> timeouts;
  double now = 0.0;
  // Prefill to the steady-state window.
  for (size_t i = 0; i < window; ++i) {
    q.Push(now + 1.0 + static_cast<double>(rng.NextBounded(1000)), [] {});
    timeouts.push_back(q.Push(now + 1e9, [] {}));
  }
  for (auto _ : state) {
    q.Push(now + 1.0 + static_cast<double>(rng.NextBounded(1000)), [] {});
    timeouts.push_back(q.Push(now + 1e9, [] {}));
    benchmark::DoNotOptimize(q.Cancel(timeouts.front()));
    timeouts.pop_front();
    double t;
    q.Pop(&t);
    now = t;
  }
  // 2 pushes + 1 cancel + 1 pop per iteration.
  state.SetItemsProcessed(state.iterations() * 4);
}
// Window 4 is lossy_hybrid's live depth: about four pending events.
BENCHMARK(BM_ChurnMix)->Arg(4)->Arg(1024)->Arg(16384);

// Pure push/pop steady state at a fixed pending-set size.
void BM_SteadyState(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  des::EventQueue q;
  Rng rng(13);
  double now = 0.0;
  for (size_t i = 0; i < window; ++i) {
    q.Push(now + rng.NextExponential(500.0), [] {});
  }
  for (auto _ : state) {
    q.Push(now + rng.NextExponential(500.0), [] {});
    double t;
    q.Pop(&t);
    now = t;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SteadyState)->Arg(8)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace bcast
