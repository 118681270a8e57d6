// Differential correctness harness for the kernel's event queue.
//
// The oracle is `ReferenceQueue` below: an ordered map keyed by (time,
// schedule sequence), where cancel erases the entry. It has no slab, no
// generations, no lazy deletion and no compaction, so it is simple
// enough to trust by inspection. `EventQueue` must be observably
// indistinguishable from it: randomized operation scripts — pushes
// across adversarial time distributions, cancels (head, middle, stale),
// pops whose callbacks re-enter Push, and clears — are replayed against
// both and every observable compared: which event each Push and Cancel
// named, the verdicts Cancel returns, and the exact (time, kind, marker)
// sequence of the pops. A failure prints the script seed; rerunning with
// that seed (and, if needed, a smaller op count) reproduces and shrinks
// it.
//
// The second half applies the same idea to the kernel's tail-resume fast
// path (des/simulation.h): random process scripts run once on
// `Simulation::Delay`, which may continue a woken process inline, and
// once on a test-local awaiter that always goes through the queue. The
// two runs must be indistinguishable.

#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "des/event_queue.h"
#include "des/simulation.h"

namespace bcast::des {
namespace {

// The oracle: `EventQueue`'s contract written the obvious way. Events
// sit in a map ordered by (time, schedule sequence), so the first entry
// is the next to fire and equal times fire FIFO; an id is the schedule
// sequence, and cancel erases the entry.
class ReferenceQueue {
 public:
  using EventId = uint64_t;

  EventId Push(double time, std::function<void()> fn,
               EventKind kind = EventKind::kGeneric) {
    const uint64_t seq = next_seq_++;
    events_.emplace(Key{time, seq}, Entry{kind, std::move(fn)});
    time_of_.emplace(seq, time);
    return seq;
  }

  bool Cancel(EventId id) {
    const auto it = time_of_.find(id);
    if (it == time_of_.end()) return false;
    events_.erase(Key{it->second, id});
    time_of_.erase(it);
    return true;
  }

  std::function<void()> Pop(double* time, EventKind* kind = nullptr) {
    const auto it = events_.begin();
    *time = it->first.first;
    if (kind != nullptr) *kind = it->second.kind;
    std::function<void()> fn = std::move(it->second.fn);
    time_of_.erase(it->first.second);
    events_.erase(it);
    return fn;
  }

  void Clear() {
    events_.clear();
    time_of_.clear();
  }

  bool empty() const { return events_.empty(); }
  uint64_t size() const { return events_.size(); }

 private:
  using Key = std::pair<double, uint64_t>;  // (time, schedule sequence)
  struct Entry {
    EventKind kind;
    std::function<void()> fn;
  };

  std::map<Key, Entry> events_;
  std::unordered_map<uint64_t, double> time_of_;  // live id -> time
  uint64_t next_seq_ = 1;
};

// One observable step of a script run. Events are named by their
// marker, never by the id the queue returned: the two queues number
// their ids differently. Push and Cancel record what they named; Pop
// records everything the queue exposes about the event.
struct Observation {
  enum Op : uint8_t { kPush, kCancel, kPop, kClear } op;
  double time = 0.0;        // pop: timestamp (push: the scheduled time)
  uint64_t marker = 0;      // push/pop: the event; cancel: its target
  int kind = 0;             // pop: the EventKind byte
  bool ok = false;          // cancel: verdict
  uint64_t size_after = 0;  // q.size() after the step

  bool operator==(const Observation&) const = default;
};

// Draws an event time from one of several adversarial distributions so a
// single script exercises dense equal-time bursts, smooth DES-like
// schedules, and far-future outliers together.
double DrawTime(Rng& rng) {
  switch (rng.NextBounded(6)) {
    case 0:
      return static_cast<double>(rng.NextBounded(4));  // dense collisions
    case 1:
      return rng.NextDouble() * 1e3;  // smooth near-term spread
    case 2:
      return rng.NextExponential(50.0);  // DES think-time shape
    case 3:
      return static_cast<double>(rng.NextBounded(1 << 20)) * 1e6;  // sparse
    case 4:
      return -rng.NextDouble() * 100.0;  // past (EventQueue allows it)
    default:
      return 1e15 + rng.NextDouble();  // far-future outliers
  }
}

// The state a script's callbacks touch. An event's callback captures at
// most 24 bytes, so it holds a pointer to this plus its marker.
template <typename Queue>
struct ScriptState {
  Queue q;
  std::vector<uint64_t> outstanding;  // markers of events believed live
  std::unordered_map<uint64_t, uint64_t> id_of;  // marker -> queue's id
  // Markers whose callback re-enters Push -> the stream it draws from.
  std::unordered_map<uint64_t, Rng> nested_of;
  uint64_t next_marker = 1;
  uint64_t last_marker = 0;            // set by the callback that just ran
  std::vector<Observation> reentrant;  // pushes made inside callbacks
};

// The callback of the event named \p marker.
template <typename Queue>
void RunMarker(ScriptState<Queue>* s, uint64_t marker) {
  s->last_marker = marker;
  const auto it = s->nested_of.find(marker);
  if (it == s->nested_of.end()) return;
  // Re-entrant Push from a running callback, as coroutine resumptions
  // do constantly in the real kernel.
  const double t = DrawTime(it->second);
  const uint64_t nested_marker = s->next_marker++;
  s->id_of[nested_marker] =
      s->q.Push(t, [s, nested_marker] { s->last_marker = nested_marker; });
  s->outstanding.push_back(nested_marker);
  s->reentrant.push_back(Observation{Observation::kPush, t, nested_marker,
                                     0, true, s->q.size()});
}

// Replays the script derived from \p seed against a fresh \p Queue and
// returns the full observation log. All control decisions draw from the
// same seeded stream, so two queues with identical observable behaviour
// walk identical scripts.
template <typename Queue>
std::vector<Observation> RunScript(uint64_t seed, size_t num_ops) {
  Rng rng(seed);
  ScriptState<Queue> state;
  ScriptState<Queue>* const s = &state;
  Queue& q = state.q;
  std::vector<Observation> log;
  log.reserve(num_ops + num_ops / 2);

  auto push_one = [&](double time) {
    const uint64_t marker = s->next_marker++;
    const auto kind = static_cast<EventKind>(rng.NextBounded(8));
    if (rng.NextBernoulli(0.1)) {
      s->nested_of.emplace(marker, rng.Split(marker));
    }
    s->id_of[marker] =
        q.Push(time, [s, marker] { RunMarker(s, marker); }, kind);
    s->outstanding.push_back(marker);
    log.push_back(Observation{Observation::kPush, time, marker,
                              static_cast<int>(kind), true, q.size()});
  };

  for (size_t op = 0; op < num_ops; ++op) {
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 45 || q.empty()) {
      double time = DrawTime(rng);
      push_one(time);
      // Occasionally a burst at exactly the same timestamp.
      if (rng.NextBernoulli(0.15)) {
        const uint64_t burst = 1 + rng.NextBounded(8);
        for (uint64_t i = 0; i < burst && op + 1 < num_ops; ++i, ++op) {
          push_one(time);
        }
      }
    } else if (roll < 65) {
      // Cancel: mostly a live event, sometimes a fired, cancelled or
      // cleared one (its marker stays in `outstanding`), sometimes a
      // bogus id (marker 0).
      uint64_t marker = 0;
      uint64_t id;
      if (rng.NextBernoulli(0.8) && !s->outstanding.empty()) {
        const size_t at = rng.NextBounded(s->outstanding.size());
        marker = s->outstanding[at];
        s->outstanding.erase(s->outstanding.begin() + at);
        id = s->id_of[marker];
      } else {
        id = rng.Next();  // almost surely invalid
      }
      const bool ok = q.Cancel(id);
      log.push_back(
          Observation{Observation::kCancel, 0.0, marker, 0, ok, q.size()});
    } else if (roll < 97) {
      double t;
      EventKind kind;
      auto fn = q.Pop(&t, &kind);
      const size_t before = log.size();
      s->last_marker = 0;
      fn();  // may re-enter Push (recorded into `reentrant`)
      for (Observation& o : s->reentrant) log.push_back(o);
      s->reentrant.clear();
      log.insert(log.begin() + static_cast<ptrdiff_t>(before),
                 Observation{Observation::kPop, t, s->last_marker,
                             static_cast<int>(kind), true, q.size()});
    } else {
      q.Clear();
      s->outstanding.clear();
      log.push_back(
          Observation{Observation::kClear, 0.0, 0, 0, true, q.size()});
    }
  }
  // Drain: the tail of the sequence is as telling as the middle.
  while (!q.empty()) {
    double t;
    EventKind kind;
    auto fn = q.Pop(&t, &kind);
    s->last_marker = 0;
    fn();
    log.push_back(Observation{Observation::kPop, t, s->last_marker,
                              static_cast<int>(kind), true, q.size()});
    for (Observation& o : s->reentrant) log.push_back(o);
    s->reentrant.clear();
  }
  return log;
}

std::string Describe(const Observation& o) {
  std::ostringstream out;
  const char* names[] = {"push", "cancel", "pop", "clear"};
  out << names[o.op] << " time=" << o.time << " marker=" << o.marker
      << " kind=" << o.kind << " ok=" << o.ok
      << " size_after=" << o.size_after;
  return out.str();
}

void ExpectIdenticalRuns(uint64_t seed, size_t num_ops) {
  SCOPED_TRACE("script seed " + std::to_string(seed) + ", " +
               std::to_string(num_ops) + " ops");
  const std::vector<Observation> reference =
      RunScript<ReferenceQueue>(seed, num_ops);
  const std::vector<Observation> actual = RunScript<EventQueue>(seed, num_ops);
  ASSERT_EQ(actual.size(), reference.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], reference[i])
        << "first divergence at step " << i << ":\n  queue:     "
        << Describe(actual[i]) << "\n  reference: " << Describe(reference[i]);
  }
}

TEST(QueueDifferentialTest, TenThousandOpScripts) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ExpectIdenticalRuns(seed, 10000);
  }
}

TEST(QueueDifferentialTest, ManyShortScripts) {
  // Short scripts hit the empty/small-queue edges (first push after a
  // drain, cancel-at-head with one survivor) far more often per op.
  for (uint64_t seed = 100; seed < 140; ++seed) {
    ExpectIdenticalRuns(seed, 300);
  }
}

TEST(QueueDifferentialTest, CancelHeavyScript) {
  // A dedicated high-cancel mix, both queues driven in lockstep:
  // interleave pushes with immediate cancels of the current head so the
  // skip-stale and compaction paths run constantly.
  EventQueue q;
  ReferenceQueue reference;
  Rng rng(7);
  uint64_t ran = 0;            // marker of the queue's last callback
  uint64_t reference_ran = 0;  // marker of the reference's last callback
  auto pop_and_check = [&] {
    double t;
    double reference_t;
    q.Pop(&t)();
    reference.Pop(&reference_t)();
    ASSERT_EQ(t, reference_t);
    ASSERT_EQ(ran, reference_ran) << "pop was not the reference's next";
  };
  for (uint64_t marker = 1; marker <= 5000; ++marker) {
    const double time = DrawTime(rng);
    const auto id = q.Push(time, [&ran, marker] { ran = marker; });
    const auto reference_id = reference.Push(
        time, [&reference_ran, marker] { reference_ran = marker; });
    if (rng.NextBernoulli(0.7)) {
      // Cancelling the event just pushed frequently cancels the
      // current head, exercising the skip-stale path on every pop.
      ASSERT_TRUE(q.Cancel(id));
      ASSERT_TRUE(reference.Cancel(reference_id));
    }
    if (rng.NextBernoulli(0.3) && !q.empty()) pop_and_check();
    ASSERT_EQ(q.size(), reference.size());
  }
  while (!q.empty()) pop_and_check();
  EXPECT_TRUE(reference.empty());
}

// --- Inline vs queued wakeups ---

// The always-queued wakeup: every delay is one pushed and popped event
// whose callback resumes the process. `Simulation::Delay` must be
// observably identical to it.
struct QueuedDelay {
  Simulation* sim;
  double delay;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim->Schedule(delay, [h] { h.resume(); }, EventKind::kDelay);
  }
  void await_resume() const noexcept {}
};

// One observable step: who ran (process id; kRunReturn for a return from
// Run/RunUntil; kSideEvent for an unrelated callback) and when.
struct TraceStep {
  static constexpr int kRunReturn = -1;
  static constexpr int kSideEvent = -2;
  int who = 0;
  double time = 0.0;

  bool operator==(const TraceStep&) const = default;
};

struct ScriptWorld {
  Simulation* sim;
  bool queued;  // QueuedDelay instead of Simulation::Delay
  std::vector<std::coroutine_handle<>> parked;  // FIFO
  std::vector<TraceStep> trace;
};

// Suspends the caller until a waker callback resumes it.
struct Park {
  ScriptWorld* world;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    world->parked.push_back(h);
  }
  void await_resume() const noexcept {}
};

// Resumes up to \p n parked processes in a row from one callback, the
// way a pull delivery resumes every waiter of a page. Only the last one
// resumed could ever be a tail, and this callback names none.
void WakeParked(ScriptWorld* world, uint64_t n) {
  for (uint64_t i = 0; i < n && !world->parked.empty(); ++i) {
    const std::coroutine_handle<> h = world->parked.front();
    world->parked.erase(world->parked.begin());
    h.resume();
  }
}

// Delays that collide: zero, whole and half units (which the run loop's
// horizons also land on), plus an irregular spread.
double DrawScriptDelay(Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:
      return 0.0;
    case 1:
      return static_cast<double>(rng.NextBounded(3));
    case 2:
      return 0.5 * static_cast<double>(1 + rng.NextBounded(4));
    default:
      return rng.NextDouble() * 3.0;
  }
}

Process Script(ScriptWorld* world, int id, Rng rng, uint64_t steps) {
  Simulation* sim = world->sim;
  for (uint64_t step = 0; step < steps; ++step) {
    world->trace.push_back(TraceStep{id, sim->Now()});
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 65) {
      const double delay = DrawScriptDelay(rng);
      if (world->queued) {
        co_await QueuedDelay{sim, delay};
      } else {
        co_await sim->Delay(delay);
      }
    } else if (roll < 85) {
      // Every park schedules its own waker first, so no process is left
      // parked once the queue drains.
      const uint64_t n = 2 + rng.NextBounded(2);
      sim->Schedule(DrawScriptDelay(rng),
                    [world, n] { WakeParked(world, n); });
      co_await Park{world};
    } else {
      sim->Schedule(DrawScriptDelay(rng), [world, sim] {
        world->trace.push_back(TraceStep{TraceStep::kSideEvent, sim->Now()});
      });
    }
  }
  world->trace.push_back(TraceStep{id, sim->Now()});
}

struct ScriptResult {
  std::vector<TraceStep> trace;
  uint64_t events_dispatched = 0;
  std::array<uint64_t, kNumEventKinds> kind_dispatches{};
  uint64_t live_processes = 0;

  bool operator==(const ScriptResult&) const = default;
};

ScriptResult RunProcessScript(bool queued, uint64_t seed) {
  Rng rng(seed);
  Simulation sim;
  sim.EnableProfiling();
  ScriptWorld world{&sim, queued, {}, {}};
  const uint64_t processes = 1 + rng.NextBounded(4);
  for (uint64_t p = 0; p < processes; ++p) {
    sim.Spawn(Script(&world, static_cast<int>(p), rng.Split(p + 1),
                     10 + rng.NextBounded(60)));
  }
  // Alternate horizons (on the half-unit grid the delays land on, zero
  // length included) with unbounded runs until everything has drained.
  while (!sim.queue().empty()) {
    if (rng.NextBernoulli(0.7)) {
      sim.RunUntil(sim.Now() + 0.5 * static_cast<double>(rng.NextBounded(5)));
    } else {
      sim.Run();
    }
    world.trace.push_back(TraceStep{TraceStep::kRunReturn, sim.Now()});
  }
  ScriptResult result;
  result.trace = std::move(world.trace);
  result.events_dispatched = sim.events_dispatched();
  for (size_t k = 0; k < kNumEventKinds; ++k) {
    result.kind_dispatches[k] = sim.profile().kinds[k].dispatches;
  }
  result.live_processes = sim.live_processes();
  return result;
}

TEST(QueueDifferentialTest, InlineWakeupsMatchQueuedWakeups) {
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("process script seed " + std::to_string(seed));
    const ScriptResult oracle = RunProcessScript(/*queued=*/true, seed);
    ASSERT_EQ(oracle.live_processes, 0u);
    ASSERT_EQ(oracle.events_dispatched,
              std::accumulate(oracle.kind_dispatches.begin(),
                              oracle.kind_dispatches.end(), uint64_t{0}));
    const ScriptResult fast = RunProcessScript(/*queued=*/false, seed);
    ASSERT_EQ(fast.trace.size(), oracle.trace.size());
    for (size_t i = 0; i < fast.trace.size(); ++i) {
      ASSERT_EQ(fast.trace[i], oracle.trace[i])
          << "first divergence at step " << i << ": who "
          << fast.trace[i].who << " t=" << fast.trace[i].time
          << " vs who " << oracle.trace[i].who
          << " t=" << oracle.trace[i].time;
    }
    EXPECT_EQ(fast.events_dispatched, oracle.events_dispatched);
    EXPECT_EQ(fast.kind_dispatches, oracle.kind_dispatches);
    EXPECT_EQ(fast.live_processes, 0u);
  }
}

}  // namespace
}  // namespace bcast::des
