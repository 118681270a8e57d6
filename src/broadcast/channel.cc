#include "broadcast/channel.h"

#include "common/logging.h"
// pull interaction goes through pull::WaiterRegistry (pull/pull_sink.h).

namespace bcast {

BroadcastChannel::BroadcastChannel(des::Simulation* sim,
                                   const BroadcastProgram* program)
    : sim_(sim), program_(program) {
  BCAST_CHECK(sim != nullptr);
  BCAST_CHECK(program != nullptr);
}

void BroadcastChannel::EnableResync() {
  resync_enabled_ = true;
  if (sim_->lanes() == 1 || !lane_views_.empty()) return;
  lane_views_.assign(sim_->lanes(), LaneView{program_, origin_, nullptr,
                                             nullptr});
  sim_->OnLaneSwitch(
      [this](uint32_t from, uint32_t to) { SwitchLane(from, to); });
}

void BroadcastChannel::SwitchLane(uint32_t from, uint32_t to) {
  lane_views_[from] = LaneView{program_, origin_, active_head_, active_tail_};
  const LaneView& view = lane_views_[to];
  program_ = view.program;
  origin_ = view.origin;
  active_head_ = view.head;
  active_tail_ = view.tail;
}

bool BroadcastChannel::PageAwaiter::await_suspend(std::coroutine_handle<> h) {
  const double now = channel_->sim_->Now();
  if (receiver_ == nullptr && channel_->pull_ == nullptr) {
    // Ideal pure-push channel: the next complete transmission is the
    // page. This path is kept as it was before faults and pull existed
    // — one event, no awaiter state — so ideal runs stay bit-identical.
    // When nothing can run before the arrival, the waiter continues
    // inline instead (tail resumption, des/simulation.h) with the same
    // bookkeeping.
    const double done = channel_->program_->NextArrivalEnd(page_, now);
    wait_ = done - now;
    des::Simulation* sim = channel_->sim_;
    if (sim->ContinueInline(h, done, des::EventKind::kSlot)) return false;
    sim->ScheduleAt(
        done, [sim, h]() { sim->ResumeTail(h); }, des::EventKind::kSlot);
    return true;
  }
  start_ = now;
  handle_ = h;
  if (channel_->resync_enabled_) channel_->LinkActive(this);
  if (channel_->pull_ != nullptr) {
    // Enter the push-pull race: a pull slot carrying page_ may resume us
    // before the scheduled arrival does.
    registered_ = true;
    channel_->pull_->AddWaiter(page_, this);
  }
  if (receiver_ == nullptr) {
    const double done = channel_->ArrivalEnd(page_, now);
    pending_ = channel_->sim_->ScheduleAt(
        done, [this, h, done]() { Finish(h, done, /*via_pull=*/false); },
        des::EventKind::kSlot);
    return true;
  }
  const double ideal_end = channel_->ArrivalEnd(page_, now);
  const double gap =
      static_cast<double>(channel_->program_->period()) /
      static_cast<double>(channel_->program_->Frequency(page_));
  receiver_->BeginWait(page_, now, ideal_end, gap);
  ScheduleAttempt(h, now);
  return true;
}

void BroadcastChannel::PageAwaiter::ScheduleAttempt(std::coroutine_handle<> h,
                                                    double listen_from) {
  // Skip past arrivals the client cannot hear — dozed through, lost to a
  // crash downtime window, or silenced by a server stall: a reception
  // counts only when the whole slot was audible.
  double at = listen_from;
  double end = channel_->ArrivalEnd(page_, at);
  while (!receiver_->AudibleDuring(end - 1.0, end)) {
    at = receiver_->NoteMissedArrival(end - 1.0);
    end = channel_->ArrivalEnd(page_, at);
  }
  // Server-side jitter may smear the completion past the nominal slot
  // boundary; identical to `end` when jitter is off.
  const double done = receiver_->DeliveryEnd(end);
  // The awaiter object lives in the suspended coroutine frame until h
  // is resumed, so capturing `this` across re-arms is safe.
  pending_ = channel_->sim_->ScheduleAt(
      done,
      [this, h, done]() {
        if (receiver_->Attempt(page_, done)) {
          receiver_->EndWait(done);
          Finish(h, done, /*via_pull=*/false);
          return;
        }
        ScheduleAttempt(h, receiver_->NextRetryTime(done));
      },
      des::EventKind::kSlot);
}

void BroadcastChannel::PageAwaiter::Finish(std::coroutine_handle<> h,
                                           double end, bool via_pull) {
  // Deregister before resuming: the resume may destroy this frame.
  if (channel_->resync_enabled_) channel_->UnlinkActive(this);
  if (registered_) {
    channel_->pull_->RemoveWaiter(page_, this);
    registered_ = false;
  }
  channel_->last_wait_via_pull_ = via_pull;
  wait_ = end - start_;
  h.resume();
}

bool BroadcastChannel::PageAwaiter::OnPullDelivery(double deliver_end) {
  // A page is received only from a slot heard whole: a wait that began
  // after the slot started missed its beginning, draws nothing for it,
  // and stays armed for its push arrival and any later pull.
  if (start_ > deliver_end - 1.0) return false;
  // The pull transmission crosses the same air as push: a dozing,
  // fading, or corrupting radio can miss it, in which case the waiter
  // stays armed on its push schedule.
  if (receiver_ != nullptr) {
    if (!receiver_->AudibleDuring(deliver_end - 1.0, deliver_end)) {
      return false;
    }
    if (!receiver_->Attempt(page_, deliver_end)) return false;
    receiver_->EndWait(deliver_end);
  }
  // Pull won the race: the pending push-side event must not fire. The
  // server already detached us from its waiter table before delivering,
  // so Finish must not detach again.
  channel_->sim_->CancelEvent(pending_);
  registered_ = false;
  Finish(handle_, deliver_end, /*via_pull=*/true);
  return true;
}

void BroadcastChannel::PageAwaiter::Resync(double now) {
  // The pending push-side event points into the retired schedule; replace
  // it with an arrival under the new one. Pull registration is unaffected
  // (the waiter table is keyed by page, and page ids survive epochs).
  channel_->sim_->CancelEvent(pending_);
  if (receiver_ == nullptr) {
    const double done = channel_->ArrivalEnd(page_, now);
    pending_ = channel_->sim_->ScheduleAt(
        done, [this, done]() { Finish(handle_, done, /*via_pull=*/false); },
        des::EventKind::kSlot);
    return;
  }
  // The receiver keeps its wait state (deadline, backoff, attempts):
  // resync is just another retry through the existing recovery machinery.
  ScheduleAttempt(handle_, now);
}

void BroadcastChannel::SetProgram(const BroadcastProgram* program,
                                  double now) {
  BCAST_CHECK(program != nullptr);
  BCAST_CHECK(resync_enabled_)
      << "SetProgram requires EnableResync() before the first wait";
  BCAST_CHECK_EQ(program->num_disks(), program_->num_disks());
  program_ = program;
  origin_ = now;
  // Resync never resumes a coroutine synchronously (all re-armed events
  // are strictly in the future), so the list is stable during the walk;
  // reading the successor first would still survive a waiter unlinking
  // itself.
  for (PageAwaiter* waiter = active_head_; waiter != nullptr;) {
    PageAwaiter* const next = waiter->next_;
    waiter->Resync(now);
    waiter = next;
  }
}

void BroadcastChannel::LinkActive(PageAwaiter* waiter) {
  waiter->prev_ = active_tail_;
  waiter->next_ = nullptr;
  if (active_tail_ != nullptr) {
    active_tail_->next_ = waiter;
  } else {
    active_head_ = waiter;
  }
  active_tail_ = waiter;
}

void BroadcastChannel::UnlinkActive(PageAwaiter* waiter) {
  if (waiter->prev_ != nullptr) {
    waiter->prev_->next_ = waiter->next_;
  } else {
    active_head_ = waiter->next_;
  }
  if (waiter->next_ != nullptr) {
    waiter->next_->prev_ = waiter->prev_;
  } else {
    active_tail_ = waiter->prev_;
  }
  waiter->prev_ = waiter->next_ = nullptr;
}

}  // namespace bcast
