#include "des/simulation.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "obs/timeline.h"

namespace bcast::des {

void Process::promise_type::FinalAwaiter::await_suspend(Handle h) noexcept {
  Simulation* sim = h.promise().sim;
  BCAST_CHECK(sim != nullptr) << "process finished without being spawned";
  sim->OnProcessFinished(h);
  // The frame is destroyed inside OnProcessFinished; control returns to the
  // event loop because the coroutine stays "suspended" here.
}

void Process::promise_type::unhandled_exception() {
  BCAST_LOG(kFatal) << "exception escaped a des::Process; the bcast library "
                       "is exception-free";
}

Process::~Process() {
  // A spawned process has its handle nulled by Simulation::Spawn; only a
  // never-spawned (or moved-from) Process still owns a frame here.
  if (handle_) handle_.destroy();
}

void DelayAwaiter::ScheduleWakeup(std::coroutine_handle<> h, double wake) {
  sim_->ScheduleAt(wake, [sim = sim_, h]() { sim->ResumeTail(h); },
                   EventKind::kDelay);
}

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Simulation::Simulation(uint32_t lanes) : queue_(lanes) {
  if (lanes > 1) {
    lane_state_.resize(lanes);
    lane_wake_.assign(lanes, kInf);
  }
}

Simulation::~Simulation() {
  // Drop pending events first so nothing can resume a process while the
  // frames below are being destroyed.
  queue_.Clear();
  for (void* frame : processes_) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
}

EventQueue::EventId Simulation::Schedule(double delay, EventCallback fn,
                                         EventKind kind) {
  BCAST_CHECK_GE(delay, 0.0);
  return queue_.Push(now_ + delay, fn, kind);
}

EventQueue::EventId Simulation::ScheduleAt(double time, EventCallback fn,
                                           EventKind kind) {
  BCAST_CHECK_GE(time, now_);
  return queue_.Push(time, fn, kind);
}

void Simulation::Spawn(Process process) {
  Process::Handle h = process.handle_;
  BCAST_CHECK(h != nullptr) << "spawning a moved-from Process";
  process.handle_ = nullptr;  // ownership moves to the simulation
  h.promise().sim = this;
  processes_.insert(h.address());
  ++lane_live_;
  Schedule(0.0, [this, h]() { ResumeTail(h); }, EventKind::kProcessStart);
}

void Simulation::OnProcessFinished(Process::Handle h) {
  auto it = processes_.find(h.address());
  BCAST_CHECK(it != processes_.end()) << "finishing an unregistered process";
  processes_.erase(it);
  --lane_live_;
  h.destroy();
}

void Simulation::OnLaneSwitch(
    std::function<void(uint32_t from, uint32_t to)> hook) {
  BCAST_CHECK(!on_lane_switch_) << "a lane-switch hook is already set";
  on_lane_switch_ = std::move(hook);
}

void Simulation::EnterLane(uint32_t lane) {
  const uint32_t from = queue_.lane();
  if (lane == from) return;
  BCAST_CHECK(!running_) << "EnterLane inside the event loop";
  BCAST_CHECK_LT(lane, lanes());
  LaneState& out = lane_state_[from];
  out.now = now_;
  out.live = lane_live_;
  lane_wake_[from] = queue_.empty() ? kInf : queue_.PeekTime();
  // A finished lane gives its heap storage back.
  if (queue_.empty() && lane_live_ == 0) queue_.ReleaseLane();
  queue_.SelectLane(lane);
  now_ = std::max(lane_state_[lane].now, lanes_floor_);
  lane_live_ = lane_state_[lane].live;
  if (on_lane_switch_) on_lane_switch_(from, lane);
}

void Simulation::RunLanes(double time) {
  BCAST_CHECK(!running_) << "RunLanes is not reentrant";
  const bool drain = std::isinf(time);
  for (uint32_t lane = 0; lane < lanes(); ++lane) {
    double wake;
    if (lane == queue_.lane()) {
      wake = queue_.empty() ? kInf : queue_.PeekTime();
    } else {
      wake = lane_wake_[lane];
    }
    if (wake > time || wake == kInf) continue;
    EnterLane(lane);
    if (drain) {
      Drain();
    } else {
      RunUntil(time);
    }
  }
  if (!drain) {
    lanes_floor_ = std::max(lanes_floor_, time);
    if (now_ < time) now_ = time;
  }
}

double Simulation::frontier() const {
  // The entered lane's saved state is stale; now_ stands for it.
  double latest = std::max(now_, lanes_floor_);
  for (const LaneState& state : lane_state_) {
    latest = std::max(latest, state.now);
  }
  return latest;
}

void Simulation::Dispatch(EventCallback& fn, EventKind kind) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  DesProfile::KindStats& stats = profile_.kinds[static_cast<size_t>(kind)];
  ++stats.dispatches;
  stats.cpu_ns += static_cast<uint64_t>(ns);
}

void Simulation::Run() {
  BCAST_TIMELINE(timeline_, BeginSpan(obs::track::kSim, "des_run", "des",
                                      now_));
  Drain();
  BCAST_TIMELINE(timeline_, EndSpan(obs::track::kSim, now_));
}

void Simulation::Drain() {
  BCAST_CHECK(!running_) << "Run is not reentrant";
  running_ = true;
  horizon_ = kInf;
  // The unprofiled loop never extracts event kinds — with profiling off
  // the dispatch path is exactly the pre-profiling one.
  if (!profiling_) {
    while (!queue_.empty()) {
      double t;
      EventCallback fn = queue_.Pop(&t);
      BCAST_CHECK_GE(t, now_) << "event scheduled in the past";
      now_ = t;
      ++events_dispatched_;
      fn();
    }
  } else {
    while (!queue_.empty()) {
      double t;
      EventKind kind;
      EventCallback fn = queue_.Pop(&t, &kind);
      BCAST_CHECK_GE(t, now_) << "event scheduled in the past";
      now_ = t;
      ++events_dispatched_;
      Dispatch(fn, kind);
    }
  }
  running_ = false;
}

void Simulation::RunUntil(double time) {
  BCAST_CHECK(!running_) << "RunUntil is not reentrant";
  BCAST_CHECK_GE(time, now_);
  running_ = true;
  horizon_ = time;
  while (!queue_.empty() && queue_.PeekTime() <= time) {
    double t;
    EventCallback fn;
    if (!profiling_) {
      fn = queue_.Pop(&t);
      now_ = t;
      ++events_dispatched_;
      fn();
    } else {
      EventKind kind;
      fn = queue_.Pop(&t, &kind);
      now_ = t;
      ++events_dispatched_;
      Dispatch(fn, kind);
    }
  }
  if (now_ < time) now_ = time;
  running_ = false;
}

}  // namespace bcast::des
