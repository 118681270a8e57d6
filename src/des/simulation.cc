#include "des/simulation.h"

#include <chrono>
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

bool DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  BCAST_CHECK_GE(delay_, 0.0);
  const double wake = sim_->Now() + delay_;
  if (sim_->ContinueInline(h, wake, EventKind::kDelay)) return false;
  sim_->ScheduleAt(wake, [sim = sim_, h]() { sim->ResumeTail(h); },
                   EventKind::kDelay);
  return true;
}

Simulation::~Simulation() {
  // Drop pending events first so nothing can resume a process while the
  // frames below are being destroyed.
  queue_.Clear();
  for (void* frame : processes_) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
}

EventQueue::EventId Simulation::Schedule(double delay,
                                         std::function<void()> fn,
                                         EventKind kind) {
  BCAST_CHECK_GE(delay, 0.0);
  return queue_.Push(now_ + delay, std::move(fn), kind);
}

EventQueue::EventId Simulation::ScheduleAt(double time,
                                           std::function<void()> fn,
                                           EventKind kind) {
  BCAST_CHECK_GE(time, now_);
  return queue_.Push(time, std::move(fn), kind);
}

void Simulation::Spawn(Process process) {
  Process::Handle h = process.handle_;
  BCAST_CHECK(h != nullptr) << "spawning a moved-from Process";
  process.handle_ = nullptr;  // ownership moves to the simulation
  h.promise().sim = this;
  processes_.insert(h.address());
  Schedule(0.0, [this, h]() { ResumeTail(h); }, EventKind::kProcessStart);
}

void Simulation::OnProcessFinished(Process::Handle h) {
  auto it = processes_.find(h.address());
  BCAST_CHECK(it != processes_.end()) << "finishing an unregistered process";
  processes_.erase(it);
  h.destroy();
}

void Simulation::Dispatch(std::function<void()>& fn, EventKind kind) {
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
  BCAST_CHECK(!running_) << "Run is not reentrant";
  running_ = true;
  stopped_ = false;
  horizon_ = std::numeric_limits<double>::infinity();
  BCAST_TIMELINE(timeline_, BeginSpan(obs::track::kSim, "des_run", "des",
                                      now_));
  // The unprofiled loop never extracts event kinds — with profiling off
  // the dispatch path is exactly the pre-profiling one.
  if (!profiling_) {
    while (!stopped_ && !queue_.empty()) {
      double t;
      std::function<void()> fn = queue_.Pop(&t);
      BCAST_CHECK_GE(t, now_) << "event scheduled in the past";
      now_ = t;
      ++events_dispatched_;
      fn();
    }
  } else {
    while (!stopped_ && !queue_.empty()) {
      double t;
      EventKind kind;
      std::function<void()> fn = queue_.Pop(&t, &kind);
      BCAST_CHECK_GE(t, now_) << "event scheduled in the past";
      now_ = t;
      ++events_dispatched_;
      Dispatch(fn, kind);
    }
  }
  BCAST_TIMELINE(timeline_, EndSpan(obs::track::kSim, now_));
  running_ = false;
}

void Simulation::RunUntil(double time) {
  BCAST_CHECK(!running_) << "RunUntil is not reentrant";
  BCAST_CHECK_GE(time, now_);
  running_ = true;
  stopped_ = false;
  horizon_ = time;
  while (!stopped_ && !queue_.empty() && queue_.PeekTime() <= time) {
    double t;
    std::function<void()> fn;
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
  if (!stopped_ && now_ < time) now_ = time;
  running_ = false;
}

}  // namespace bcast::des
