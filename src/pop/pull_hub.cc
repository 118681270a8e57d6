#include "pop/pull_hub.h"

#include <algorithm>

namespace bcast::pop {

void ShardPullHub::AddWaiter(PageId page, pull::PullSink* sink) {
  const uint32_t lane = sim_->lane();
  waiters_[page].push_back(Waiter{sink, lane});
  // A lane that starts waiting partway through the round hears the
  // round's mirrors of this page it has not passed yet.
  for (Mirror& m : mirrors_) {
    if (m.page != page || sim_->Passed(m.end, m.seq)) continue;
    const auto pos = std::lower_bound(m.lanes.begin(), m.lanes.end(), lane);
    if (pos != m.lanes.end() && *pos == lane) continue;  // already there
    m.lanes.insert(pos, lane);
    ScheduleMirror(m);
  }
}

void ShardPullHub::RemoveWaiter(PageId page, pull::PullSink* sink) {
  auto it = waiters_.find(page);
  if (it == waiters_.end()) return;
  std::vector<Waiter>& list = it->second;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [sink](const Waiter& w) { return w.sink == sink; }),
             list.end());
  if (list.empty()) waiters_.erase(it);
}

void ShardPullHub::RouteMirrors(double round_start) {
  // A mirror that ended by the round start has fired in every lane it
  // was scheduled in, and no lane can still reach it.
  mirrors_.erase(std::remove_if(mirrors_.begin(), mirrors_.end(),
                                [round_start](const Mirror& m) {
                                  return m.end <= round_start;
                                }),
                 mirrors_.end());
  for (Mirror& m : queued_) {
    m.seq = sim_->ReserveSequence();
    auto it = waiters_.find(m.page);
    if (it != waiters_.end()) {
      for (const Waiter& w : it->second) m.lanes.push_back(w.lane);
      std::sort(m.lanes.begin(), m.lanes.end());
      m.lanes.erase(std::unique(m.lanes.begin(), m.lanes.end()),
                    m.lanes.end());
    }
    for (uint32_t lane : m.lanes) {
      sim_->EnterLane(lane);
      ScheduleMirror(m);
    }
    mirrors_.push_back(std::move(m));
  }
  queued_.clear();
}

void ShardPullHub::ScheduleMirror(const Mirror& m) {
  sim_->ScheduleAtReserved(
      m.end, m.seq,
      [this, page = m.page, end = m.end]() {
        ++mirrors_fired_;
        Deliver(page, end);
      },
      des::EventKind::kPull);
}

void ShardPullHub::Deliver(PageId page, double end) {
  auto it = waiters_.find(page);
  if (it == waiters_.end()) return;
  // Detach the lane's sinks first: consuming one resumes its client,
  // which may register new waiters (for other pages) re-entrantly.
  const uint32_t lane = sim_->lane();
  std::vector<Waiter>& list = it->second;
  detached_.clear();
  list.erase(std::remove_if(list.begin(), list.end(),
                            [this, lane](const Waiter& w) {
                              if (w.lane != lane) return false;
                              detached_.push_back(w.sink);
                              return true;
                            }),
             list.end());
  if (list.empty()) waiters_.erase(it);
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
    queue_.Push(UplinkMsg{now, client_id, page, re_request});
  };
  transport.service_interval = [this]() { return service_interval_; };
  transport.stats = stats;
  return transport;
}

}  // namespace bcast::pop
