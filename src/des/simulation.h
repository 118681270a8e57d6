/// \file simulation.h
/// \brief The discrete-event simulation kernel: clock, scheduler, processes.
///
/// This is the library's substitute for CSIM [Schw86], which the paper used.
/// It provides a simulated clock measured in *broadcast units* (the time to
/// broadcast one page, per paper Section 4.1), deterministic event ordering
/// (one `EventQueue`, a binary heap; des/event_queue.h), and
/// process-oriented modelling via C++20 coroutines:
///
/// \code
///   des::Process Client(des::Simulation* sim) {
///     while (...) {
///       co_await sim->Delay(think_time);
///       co_await channel->WaitForPage(page);
///     }
///   }
///   ...
///   des::Simulation sim;
///   sim.Spawn(Client(&sim));
///   sim.Run();
/// \endcode
///
/// **Tail resumption.** Most wakeups are an event whose callback does
/// nothing but resume one process — a `Delay` expiring, an ideal
/// broadcast slot arriving, a spawned process starting. Such callbacks
/// resume through `ResumeTail`, which marks the process as the event's
/// tail. When that process next awaits a wakeup at time t and nothing
/// can run before it — t is strictly earlier than the pending-set head
/// and not past the `RunUntil` horizon — the awaiter skips the queue:
/// the clock advances to t, one event of the wakeup's kind is counted
/// as dispatched, and the process continues without suspending.
/// Equal-time wakeups still queue, so the (time, schedule order)
/// contract holds, and `events_dispatched()`, the per-kind profile
/// counts and every report are exactly those of the queued path. The
/// gate is the owning frame, not just the head time: a callback that
/// resumes several processes in a row must not let the first one run
/// ahead of the others.
///
/// **Lanes.** A simulation may be split into lanes (the population
/// engine gives each client of a shard one): each lane has its own clock,
/// its own pending events and its own live-process count, and all lanes
/// share one sequence counter, so an event's (time, sequence) position
/// against a lane's other events is what it would be in one shared
/// queue. `RunLanes` runs the lanes one at a time in lane order, each to
/// the same bound; a lane that shares no mutable state with the others
/// then behaves exactly as it would alone. Events are scheduled into
/// the lane `EnterLane` selected. A single-lane simulation (the default)
/// is the plain kernel.

#ifndef BCAST_DES_SIMULATION_H_
#define BCAST_DES_SIMULATION_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "des/event_queue.h"

namespace bcast::obs {
class TimelineWriter;
}  // namespace bcast::obs

namespace bcast::des {

class Simulation;

/// \brief Per-event-kind dispatch profile of one run.
///
/// Filled only when `Simulation::EnableProfiling()` was called: each
/// dispatched event adds one to its kind's count and its wall-clock
/// duration to the kind's cumulative nanoseconds. A wakeup that
/// continued inline (see "Tail resumption" above) counts as one
/// dispatch of its kind but has no nanoseconds of its own: its host
/// time lands in the kind of the event whose callback resumed the
/// process. Profiling measures the host, never the simulation —
/// enabling it cannot change event order, timing, or randomness.
struct DesProfile {
  struct KindStats {
    uint64_t dispatches = 0;
    uint64_t cpu_ns = 0;  ///< cumulative wall-clock ns inside callbacks
  };

  std::array<KindStats, kNumEventKinds> kinds{};

  uint64_t total_dispatches() const {
    uint64_t total = 0;
    for (const KindStats& k : kinds) total += k.dispatches;
    return total;
  }
  uint64_t total_cpu_ns() const {
    uint64_t total = 0;
    for (const KindStats& k : kinds) total += k.cpu_ns;
    return total;
  }

  /// Element-wise accumulation (multi-seed aggregation).
  void Merge(const DesProfile& other) {
    for (size_t i = 0; i < kinds.size(); ++i) {
      kinds[i].dispatches += other.kinds[i].dispatches;
      kinds[i].cpu_ns += other.kinds[i].cpu_ns;
    }
  }
};

/// \brief The coroutine type for simulation processes.
///
/// A `Process` is created suspended and owned by the `Simulation` it is
/// spawned into; it must not be resumed or destroyed by user code. Processes
/// may not throw (the library is exception-free); an escaping exception
/// aborts. A process ends by returning; the kernel then reclaims its frame.
class [[nodiscard]] Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    Process get_return_object() {
      return Process(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    // At final suspension the kernel unregisters and destroys the frame.
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(Handle h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception();

    Simulation* sim = nullptr;
  };

  Process(Process&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process& operator=(Process&&) = delete;

  /// Destroys the frame if the process was never spawned.
  ~Process();

 private:
  friend class Simulation;
  explicit Process(Handle handle) : handle_(handle) {}

  Handle handle_;
};

/// \brief Awaitable returned by `Simulation::Delay`.
class DelayAwaiter {
 public:
  DelayAwaiter(Simulation* sim, double delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  /// False when the wakeup continues inline (no suspension).
  inline bool await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  // Queues the wakeup of \p h at \p wake (the suspending path).
  void ScheduleWakeup(std::coroutine_handle<> h, double wake);

  Simulation* sim_;
  double delay_;
};

/// \brief The simulation: a virtual clock plus a deterministic event loop.
///
/// Not thread-safe; a simulation runs on one thread (runs are deterministic,
/// so parallelism belongs at the experiment level — run several independent
/// simulations instead).
class Simulation {
 public:
  /// A simulation of \p lanes lanes (>= 1), lane 0 entered.
  explicit Simulation(uint32_t lanes = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time of the entered lane, in broadcast units.
  /// Starts at 0.
  double Now() const { return now_; }

  /// Schedules \p fn to run at `Now() + delay`; \p delay must be >= 0.
  /// Returns an id usable with `CancelEvent`. \p kind is descriptive
  /// only (profiling/timeline attribution) and never affects ordering.
  /// \p fn is stored inline (at most 24 bytes of trivially copyable
  /// capture; see `EventCallback`).
  EventQueue::EventId Schedule(double delay, EventCallback fn,
                               EventKind kind = EventKind::kGeneric);

  /// Schedules \p fn at absolute \p time (>= Now()).
  EventQueue::EventId ScheduleAt(double time, EventCallback fn,
                                 EventKind kind = EventKind::kGeneric);

  /// Cancels a scheduled event; false if it already fired or was cancelled.
  bool CancelEvent(EventQueue::EventId id) { return queue_.Cancel(id); }

  /// Starts \p process; it runs when the event loop reaches its first
  /// suspension-free stretch (spawning schedules an immediate start event,
  /// so spawn order == start order at time 0).
  void Spawn(Process process);

  /// Runs until no events remain.
  void Run();

  /// Runs until the clock would pass \p time; events at exactly \p time
  /// still fire. The clock ends at min(time, last event time).
  void RunUntil(double time);

  /// Number of events dispatched so far (for tests/benchmarks).
  uint64_t events_dispatched() const { return events_dispatched_; }

  /// Number of live (spawned, unfinished) processes, all lanes.
  uint64_t live_processes() const { return processes_.size(); }

  /// \name Lanes
  /// @{

  /// Number of lanes.
  uint32_t lanes() const { return queue_.lanes(); }

  /// The entered lane: the one `Now`, `Schedule*` and `Spawn` act on.
  uint32_t lane() const { return queue_.lane(); }

  /// Enters \p lane (< lanes()); not from inside the event loop. A lane
  /// whose clock lags the last `RunLanes` bound starts at that bound.
  void EnterLane(uint32_t lane);

  /// Called on every lane switch with the lanes left and entered, so a
  /// subsystem can keep per-lane state. One hook per simulation.
  void OnLaneSwitch(std::function<void(uint32_t from, uint32_t to)> hook);

  /// Live processes spawned into the entered lane.
  uint64_t lane_live_processes() const { return lane_live_; }

  /// Runs every lane with an event due by \p time, one at a time in lane
  /// order, to \p time (events at exactly \p time fire; every lane's
  /// clock ends there) — or, when \p time is infinite, until its
  /// pending set is empty. Lanes with nothing due are not entered.
  void RunLanes(double time);

  /// The latest clock of any lane.
  double frontier() const;

  /// @}

  /// Suspends the calling process for \p delay (>= 0) simulated units.
  DelayAwaiter Delay(double delay) { return DelayAwaiter(this, delay); }

  /// Resumes \p h as the last act of the running event's callback,
  /// making it the event's tail: until the callback returns, its
  /// wakeups may continue inline via `ContinueInline`. The caller must
  /// do nothing after this returns — the tail may already have run
  /// ahead of the clock the callback was dispatched at.
  void ResumeTail(std::coroutine_handle<> h) {
    tail_ = h.address();
    h.resume();
    tail_ = nullptr;
  }

  /// Called by an awaiter of frame \p h about to schedule its wakeup
  /// at \p time (>= Now()) with \p kind. When \p h is the running
  /// event's tail and nothing can run before \p time, advances the
  /// clock to \p time, counts the wakeup as a dispatched event, and
  /// returns true: the awaiter then continues without suspending.
  /// Otherwise returns false and the awaiter must schedule as usual.
  bool ContinueInline(std::coroutine_handle<> h, double time,
                      EventKind kind) {
    if (h.address() != tail_ || time > horizon_) return false;
    if (!queue_.empty() && !(time < queue_.PeekTime())) return false;
    now_ = time;
    ++events_dispatched_;
    if (profiling_) ++profile_.kinds[static_cast<size_t>(kind)].dispatches;
    return true;
  }

  /// Turns on per-event-kind dispatch profiling (count + wall-clock ns
  /// per kind, read back via `profile()`). Wall-clock only: enabling it
  /// cannot perturb the simulation.
  void EnableProfiling() { profiling_ = true; }

  /// True when `EnableProfiling()` was called.
  bool profiling() const { return profiling_; }

  /// The dispatch profile accumulated so far (zeros unless profiling).
  const DesProfile& profile() const { return profile_; }

  /// Attaches a timeline writer (unowned; may be null to detach).
  /// Subsystems holding a `Simulation*` reach it via `timeline()`; the
  /// writer observes only — it never schedules events.
  void AttachTimeline(obs::TimelineWriter* timeline) {
    timeline_ = timeline;
  }

  /// The attached timeline writer, or nullptr.
  obs::TimelineWriter* timeline() const { return timeline_; }

  /// The kernel's event queue (memory introspection in tests).
  const EventQueue& queue() const { return queue_; }

 private:
  friend struct Process::promise_type;

  // Called from Process::promise_type::FinalAwaiter.
  void OnProcessFinished(Process::Handle h);

  // Runs one popped callback, profiled when profiling is on.
  void Dispatch(EventCallback& fn, EventKind kind);

  // Run without the timeline span: dispatches the entered lane's events
  // until it is empty.
  void Drain();

  // A lane's saved state while another lane is entered.
  struct LaneState {
    double now = 0.0;
    uint64_t live = 0;
  };

  EventQueue queue_;
  double now_ = 0.0;
  bool running_ = false;
  bool profiling_ = false;
  // The running loop's last dispatchable time: RunUntil's bound, or
  // infinity under Run.
  double horizon_ = 0.0;
  // Frame resumed by the running event's ResumeTail, or nullptr.
  void* tail_ = nullptr;
  uint64_t events_dispatched_ = 0;
  DesProfile profile_;
  obs::TimelineWriter* timeline_ = nullptr;
  std::unordered_set<void*> processes_;  // live coroutine frames

  uint64_t lane_live_ = 0;    // the entered lane's live processes
  double lanes_floor_ = 0.0;  // the last finite RunLanes bound
  std::vector<LaneState> lane_state_;  // saved states (one per lane)
  // Earliest pending time of each lane as of when it was last left
  // (infinity when empty); read to skip lanes with nothing due.
  std::vector<double> lane_wake_;
  std::function<void(uint32_t, uint32_t)> on_lane_switch_;
};

bool DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  BCAST_CHECK_GE(delay_, 0.0);
  const double wake = sim_->Now() + delay_;
  if (sim_->ContinueInline(h, wake, EventKind::kDelay)) return false;
  ScheduleWakeup(h, wake);
  return true;
}

}  // namespace bcast::des

#endif  // BCAST_DES_SIMULATION_H_
