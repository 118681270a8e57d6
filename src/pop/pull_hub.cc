#include "pop/pull_hub.h"

#include <algorithm>

#include "common/logging.h"

namespace bcast::pop {

void ShardPullHub::AddWaiter(PageId page, pull::PullSink* sink) {
  if (page >= waiters_.size()) waiters_.resize(size_t{page} + 1);
  waiters_[page].push_back(Waiter{sink, sim_->lane()});
}

void ShardPullHub::RemoveWaiter(PageId page, pull::PullSink* sink) {
  if (page >= waiters_.size()) return;
  std::vector<Waiter>& list = waiters_[page];
  list.erase(std::remove_if(list.begin(), list.end(),
                            [sink](const Waiter& w) { return w.sink == sink; }),
             list.end());
}

void ShardPullHub::RouteMirrors(const std::vector<PullMirror>& mirrors) {
  for (const PullMirror& m : mirrors) {
    // A wait that began by the slot start is registered by now, so the
    // waiter table lists every lane the slot can reach.
    BCAST_CHECK_LE(m.end - 1.0, sim_->Now())
        << "a pull slot mirrored before it started";
    if (m.page >= waiters_.size()) continue;
    lanes_.clear();
    for (const Waiter& w : waiters_[m.page]) lanes_.push_back(w.lane);
    std::sort(lanes_.begin(), lanes_.end());
    lanes_.erase(std::unique(lanes_.begin(), lanes_.end()), lanes_.end());
    for (uint32_t lane : lanes_) {
      sim_->EnterLane(lane);
      sim_->ScheduleAt(
          m.end,
          [this, page = m.page, end = m.end]() {
            ++mirrors_fired_;
            Deliver(page, end);
          },
          des::EventKind::kPull);
    }
  }
}

void ShardPullHub::Deliver(PageId page, double end) {
  if (page >= waiters_.size()) return;
  // Detach the lane's sinks first: consuming one resumes its client,
  // which may register new waiters (for other pages) re-entrantly.
  const uint32_t lane = sim_->lane();
  std::vector<Waiter>& list = waiters_[page];
  detached_.clear();
  list.erase(std::remove_if(list.begin(), list.end(),
                            [this, lane](const Waiter& w) {
                              if (w.lane != lane) return false;
                              detached_.push_back(w.sink);
                              return true;
                            }),
             list.end());
  for (pull::PullSink* sink : detached_) {
    if (sink->OnPullDelivery(end)) {
      ++pull_deliveries_;
    } else {
      // This receiver could not hear the pull slot (doze/loss/corrupt);
      // it keeps waiting and stays eligible for a later pull.
      waiters_[page].push_back(Waiter{sink, lane});
    }
  }
}

pull::PullTransport ShardPullHub::MakeTransport(uint64_t client_id,
                                                pull::PullStats* stats) {
  pull::PullTransport transport;
  transport.enabled = enabled_;
  transport.submit = [this, client_id](PageId page, double now,
                                       bool re_request) {
    uplink_.push_back(UplinkMsg{now, client_id, page, re_request});
  };
  transport.service_interval = [this]() { return service_interval_; };
  transport.stats = stats;
  return transport;
}

}  // namespace bcast::pop
