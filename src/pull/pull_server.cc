#include "pull/pull_server.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/timeline.h"

namespace bcast::pull {

PullServer::PullServer(des::Simulation* sim, HybridLayout layout,
                       const PullParams& params)
    : sim_(sim),
      layout_(std::move(layout)),
      params_(params),
      queue_(params.scheduler),
      backchannel_(params.uplink_cap) {
  BCAST_CHECK(sim != nullptr);
}

double PullServer::ServiceInterval() const {
  return layout_.ServiceInterval();
}

bool PullServer::TryUplink(double now, bool re_request) {
  if (re_request) {
    ++stats_.re_requests;
  } else {
    ++stats_.requests_attempted;
  }
  if (!backchannel_.TrySend(now)) {
    ++stats_.uplink_dropped;
    return false;
  }
  ++stats_.uplink_accepted;
  return true;
}

void PullServer::NoteUplinkLost() { ++stats_.uplink_lost; }

void PullServer::Enqueue(PageId page, double now) {
  BCAST_CHECK(enabled());
  queue_.Add(page, now);
  EnsureServiceScheduled(now);
}

void PullServer::EnsureServiceScheduled(double now) {
  if (service_scheduled_ || queue_.empty()) return;
  service_scheduled_ = true;
  const double at = NextSlotStart(std::max(now, next_decision_floor_));
  pending_decision_ = sim_->ScheduleAt(
      at, [this, at]() { ServiceDecision(at); }, des::EventKind::kPull);
}

void PullServer::ServiceDecision(double slot_start) {
  next_decision_floor_ = slot_start + 1.0;
  // Scheduled only while the queue is non-empty, and entries leave the
  // queue only here, so the pick always exists.
  stats_.queue_depth.Add(static_cast<double>(queue_.depth()));
  window_depth_sum_ += static_cast<double>(queue_.depth());
  ++window_depth_count_;
  BCAST_TIMELINE(BCAST_TIMELINE_PTR(sim_),
                 Counter(obs::track::kPull, "pull_queue_depth", slot_start,
                         static_cast<double>(queue_.depth())));
  std::optional<PendingRequest> pick = queue_.PopNext(slot_start);
  BCAST_CHECK(pick.has_value());
  ++stats_.serviced_pages;
  ++window_serviced_;

  const PageId page = pick->page;
  const double end = slot_start + 1.0;
  BCAST_TIMELINE(BCAST_TIMELINE_PTR(sim_),
                 Span(obs::track::kPull, "pull_service", "pull", slot_start,
                      1.0, {{"page", static_cast<double>(page)}}));
  sim_->ScheduleAt(
      end, [this, page, end]() { DeliverPage(page, end); },
      des::EventKind::kPull);
  if (service_fanout_) service_fanout_(page, end);

  if (queue_.empty()) {
    service_scheduled_ = false;
    return;
  }
  // Pull-slot starts are integers at least one slot apart, so the next
  // opportunity is the first start at or after the current slot's end.
  const double at = NextSlotStart(slot_start + 1.0);
  pending_decision_ = sim_->ScheduleAt(
      at, [this, at]() { ServiceDecision(at); }, des::EventKind::kPull);
}

void PullServer::DeliverPage(PageId page, double end) {
  auto it = waiters_.find(page);
  if (it == waiters_.end()) return;
  // Detach the list first: consuming sinks resume client coroutines,
  // which may register new waiters (for other pages) re-entrantly.
  std::vector<PullSink*> sinks = std::move(it->second);
  waiters_.erase(it);
  for (PullSink* sink : sinks) {
    if (sink->OnPullDelivery(end)) {
      ++stats_.pull_deliveries;
    } else {
      // This receiver could not hear the pull slot (doze/loss/corrupt);
      // it keeps waiting and stays eligible for a later pull.
      waiters_[page].push_back(sink);
    }
  }
}

void PullServer::AddWaiter(PageId page, PullSink* sink) {
  waiters_[page].push_back(sink);
}

void PullServer::RemoveWaiter(PageId page, PullSink* sink) {
  auto it = waiters_.find(page);
  if (it == waiters_.end()) return;
  std::vector<PullSink*>& sinks = it->second;
  sinks.erase(std::remove(sinks.begin(), sinks.end(), sink), sinks.end());
  if (sinks.empty()) waiters_.erase(it);
}

void PullServer::SetLayout(HybridLayout layout, double now) {
  BCAST_CHECK(enabled());
  BCAST_CHECK(layout.enabled());
  // Retire the old layout's opportunity count, then restart the slot
  // grid at the boundary.
  opportunities_base_ += layout_.PullSlotsBefore(now - origin_);
  layout_ = std::move(layout);
  origin_ = now;
  if (service_scheduled_) {
    // The pending decision sits on the retired grid; re-arm it on the
    // new one. The floor still guards a slot that already transmitted.
    sim_->CancelEvent(pending_decision_);
    const double at = NextSlotStart(std::max(now, next_decision_floor_));
    pending_decision_ = sim_->ScheduleAt(
        at, [this, at]() { ServiceDecision(at); }, des::EventKind::kPull);
  }
}

PullServer::EpochWindow PullServer::TakeEpochWindow(double now) {
  EpochWindow window;
  window.serviced = window_serviced_;
  const uint64_t total = SlotsBefore(now);
  window.opportunities = total - window_opportunity_mark_;
  if (window_depth_count_ > 0) {
    window.depth_mean =
        window_depth_sum_ / static_cast<double>(window_depth_count_);
  }
  if (window.opportunities > 0) {
    window.idle_rate =
        static_cast<double>(window.opportunities - window.serviced) /
        static_cast<double>(window.opportunities);
  }
  window_depth_sum_ = 0.0;
  window_depth_count_ = 0;
  window_serviced_ = 0;
  window_opportunity_mark_ = total;
  return window;
}

void PullServer::FinishRun(double end_time) {
  stats_.pull_opportunities = SlotsBefore(end_time);
}

}  // namespace bcast::pull
