/// \file pull_server.h
/// \brief The server side of the hybrid system: backchannel admission,
/// the request queue, and pull-slot service.
///
/// The server is event-lazy: it schedules a service decision only while
/// the queue is non-empty, so an idle hybrid run adds *zero* events to
/// the simulation (the DES terminates when no events remain, and the
/// regression gate counts dispatched events exactly). Each serviced pull
/// slot costs two events: the decision at the slot start (scheduler pick,
/// depth sample) and the delivery at the slot end (waiter resumption —
/// a transmission can only be joined from its first bit, like any other
/// broadcast slot).

#ifndef BCAST_PULL_PULL_SERVER_H_
#define BCAST_PULL_PULL_SERVER_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "broadcast/types.h"
#include "des/simulation.h"
#include "pull/backchannel.h"
#include "pull/hybrid.h"
#include "pull/pull_params.h"
#include "pull/pull_sink.h"
#include "pull/pull_stats.h"
#include "pull/request_queue.h"

namespace bcast::pull {

/// \brief One shared pull server per broadcast: admits uplink requests,
/// queues them, and transmits the scheduler's pick in each pull slot.
class PullServer : public WaiterRegistry {
 public:
  /// \p sim must outlive the server; \p layout describes the hybrid
  /// program on the air (a disabled layout yields an inert server that
  /// never schedules an event).
  PullServer(des::Simulation* sim, HybridLayout layout,
             const PullParams& params);

  /// The hybrid slot layout on the air.
  const HybridLayout& layout() const { return layout_; }

  /// True when the program carries pull capacity.
  bool enabled() const { return layout_.enabled(); }

  /// Switches to \p layout at simulated time \p now (an epoch boundary).
  /// The new layout's cycle starts at \p now; opportunity accounting
  /// carries over, and a pending service decision is re-armed onto the
  /// new slot grid. Both the old and new layouts must be enabled.
  void SetLayout(HybridLayout layout, double now);

  /// \brief Controller-facing activity snapshot since the last call.
  struct EpochWindow {
    double depth_mean = 0.0;     ///< mean queue depth at service decisions
    uint64_t serviced = 0;       ///< pull slots that transmitted a page
    uint64_t opportunities = 0;  ///< pull slots offered in the window
    double idle_rate = 0.0;      ///< fraction of offered slots left idle
  };

  /// Returns activity since the previous call (or construction) and
  /// resets the window. \p now must not precede earlier calls.
  EpochWindow TakeEpochWindow(double now);

  /// Mean slots between pull-slot starts (the pull service interval);
  /// 0 when disabled.
  double ServiceInterval() const;

  /// \name Uplink, driven by PullClient.
  /// @{

  /// One request send at \p now: accounts it (first send or re-request)
  /// and runs backchannel admission. True when the send was admitted.
  bool TryUplink(double now, bool re_request);

  /// An admitted send was lost in flight (uplink fault draw); it never
  /// reaches the queue.
  void NoteUplinkLost();

  /// An admitted, surviving send for \p page enters the queue; schedules
  /// the next pull-slot service if none is pending.
  void Enqueue(PageId page, double now);
  /// @}

  /// \name Waiter registry, driven by BroadcastChannel's awaiter.
  /// @{
  void AddWaiter(PageId page, PullSink* sink) override;
  void RemoveWaiter(PageId page, PullSink* sink) override;
  /// @}

  /// Observes every service decision: called with the picked page and
  /// its delivery-end time the moment the decision fires, before the
  /// delivery event runs. The population engine uses this to mirror the
  /// transmission into every shard's local waiter table; unset (the
  /// default) it costs nothing.
  void SetServiceFanout(std::function<void(PageId, double)> fanout) {
    service_fanout_ = std::move(fanout);
  }

  /// Finalizes run-length accounting (pull opportunities offered).
  void FinishRun(double end_time);

  PullStats& stats() { return stats_; }
  const PullStats& stats() const { return stats_; }

  /// Entries currently queued (for tests).
  uint64_t queue_depth() const { return queue_.depth(); }

 private:
  // Schedules the next service decision when the queue is non-empty and
  // none is pending.
  void EnsureServiceScheduled(double now);

  // Fires at a pull-slot start: samples depth, pops the scheduler's
  // pick, schedules its delivery at the slot end, and re-arms while the
  // queue stays non-empty.
  void ServiceDecision(double slot_start);

  // Fires at the slot end: offers the page to every registered waiter.
  void DeliverPage(PageId page, double end);

  // Slot-grid queries under the current layout, whose cycle began at
  // origin_. With origin_ == 0 (every non-adaptive run) the translation
  // is bit-exact against the historical direct calls.
  double NextSlotStart(double t) const {
    return origin_ + layout_.NextPullSlotStart(t - origin_);
  }
  uint64_t SlotsBefore(double t) const {
    return opportunities_base_ + layout_.PullSlotsBefore(t - origin_);
  }

  des::Simulation* sim_;
  HybridLayout layout_;
  double origin_ = 0.0;  // simulated time the current layout's cycle began
  // Pull opportunities offered by layouts already retired by SetLayout.
  uint64_t opportunities_base_ = 0;
  PullParams params_;
  RequestQueue queue_;
  Backchannel backchannel_;
  PullStats stats_;
  bool service_scheduled_ = false;
  // The scheduled service decision while service_scheduled_; SetLayout
  // cancels and re-arms it onto the new slot grid.
  des::EventQueue::EventId pending_decision_ = 0;
  // Controller window counters (see TakeEpochWindow).
  double window_depth_sum_ = 0.0;
  uint64_t window_depth_count_ = 0;
  uint64_t window_serviced_ = 0;
  uint64_t window_opportunity_mark_ = 0;
  // Earliest time the next service decision may fire: one past the last
  // consumed slot's start. Guards against a same-timestamp enqueue (e.g.
  // a timeout re-request landing exactly on a slot start) re-arming a
  // second decision in a slot that already transmitted.
  double next_decision_floor_ = 0.0;
  std::function<void(PageId, double)> service_fanout_;
  // Registered sinks of each page in registration order, indexed by page
  // and grown on demand; an emptied list keeps its storage for the next
  // wait on the page.
  std::vector<std::vector<PullSink*>> waiters_;
  std::vector<PullSink*> detached_;  // DeliverPage's scratch list
};

}  // namespace bcast::pull

#endif  // BCAST_PULL_PULL_SERVER_H_
