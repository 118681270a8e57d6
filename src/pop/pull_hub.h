/// \file pull_hub.h
/// \brief Shard-side half of the hybrid pull path.
///
/// The population engine keeps uplink admission, queueing, and service
/// decisions centralized in the coordinator's `pull::PullServer` — the
/// paper's backchannel is one shared scarce resource and must stay one.
/// What each shard owns locally is the *air side*: the waiter table its
/// `BroadcastChannel` replica registers page waits into, and the mirror
/// deliveries that resume those waiters when the coordinator's server
/// transmits a pull slot.
///
/// Requests flow the other way through an SPSC queue: a client's
/// `PullClient` submits into its shard's queue during a round, and the
/// coordinator drains all queues at the round barrier, replaying each
/// submit against the real server in canonical (time, client) order so
/// admission accounting and per-client uplink loss draws are identical
/// for every shard count.
///
/// The shard runs its clients as lanes of one simulation (pop/shard.h),
/// so a mirror goes only to the lanes that wait on its page. A pull slot
/// is heard only by waits that began by its start
/// (`BroadcastChannel::PageAwaiter::OnPullDelivery`), and the slot
/// starts by the round that mirrors it (every slot start is a barrier).
/// So the lanes waiting on the page at round start are all the lanes the
/// slot can reach, and each queued mirror is scheduled into each of them
/// then. A delivery is a verbatim mirror of
/// `PullServer::DeliverPage` — detach-then-offer with re-registration on
/// refusal — for the lane's own waiters, and the consumed-offer count
/// lands in a shard-local counter that the engine sums into the merged
/// stats (hub order is irrelevant: the counter is an integer).

#ifndef BCAST_POP_PULL_HUB_H_
#define BCAST_POP_PULL_HUB_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "broadcast/types.h"
#include "des/simulation.h"
#include "pop/spsc_queue.h"
#include "pull/pull_client.h"
#include "pull/pull_sink.h"
#include "pull/pull_stats.h"

namespace bcast::pop {

/// \brief One uplink submit crossing a shard→coordinator queue.
struct UplinkMsg {
  double t = 0.0;          ///< simulation time of the submit
  uint64_t client = 0;     ///< submitting client id (global)
  PageId page = 0;         ///< requested page
  bool re_request = false; ///< timeout-driven re-send
};

/// \brief Shard-local waiter table + uplink forwarding for one shard.
class ShardPullHub : public pull::WaiterRegistry {
 public:
  /// \p sim is the shard's simulation (its lanes are the clients).
  /// \p enabled mirrors `PullServer::enabled()`: whether the program
  /// carries pull capacity at all. \p service_interval is the initial
  /// mean slots between pull-slot starts (updated at program switches
  /// via `set_service_interval`, always at a round boundary).
  ShardPullHub(des::Simulation* sim, bool enabled, double service_interval)
      : sim_(sim), enabled_(enabled), service_interval_(service_interval) {}

  // pull::WaiterRegistry — called re-entrantly from the shard's channel,
  // in the waiting client's lane.
  void AddWaiter(PageId page, pull::PullSink* sink) override;
  void RemoveWaiter(PageId page, pull::PullSink* sink) override;

  /// Coordinator side, between rounds: the coordinator's pull server
  /// transmitted \p page in a pull slot ending at \p end (strictly after
  /// the barrier that produced it).
  void QueueMirror(PageId page, double end) {
    queued_.push_back(Mirror{page, end});
  }

  /// Shard side, at the top of a round, every lane's clock at the round
  /// start: routes the queued mirrors to the lanes waiting on their
  /// pages (see the file comment). Enters each such lane.
  void RouteMirrors();

  /// Transport for client \p client_id: submits land in this shard's
  /// queue, delivery/latency accounting lands in \p stats (the client's
  /// own store block).
  pull::PullTransport MakeTransport(uint64_t client_id,
                                    pull::PullStats* stats);

  /// New mean pull service interval after a program switch (applied by
  /// the shard at the round start where the switch lands).
  void set_service_interval(double interval) {
    service_interval_ = interval;
  }

  /// Consumed pull-delivery offers on this shard.
  uint64_t pull_deliveries() const { return pull_deliveries_; }

  /// Mirror events fired, all lanes — engine infrastructure the merged
  /// event count leaves out.
  uint64_t mirrors_fired() const { return mirrors_fired_; }

  /// The shard→coordinator uplink queue (drained at barriers).
  SpscQueue<UplinkMsg>& queue() { return queue_; }

 private:
  struct Waiter {
    pull::PullSink* sink;
    uint32_t lane;
  };
  // A pull transmission: its page and the end of its slot.
  struct Mirror {
    PageId page;
    double end;
  };

  // Mirror of `PullServer::DeliverPage` for the entered lane's waiters
  // on \p page.
  void Deliver(PageId page, double end);

  des::Simulation* sim_;
  bool enabled_;
  double service_interval_;
  uint64_t pull_deliveries_ = 0;
  uint64_t mirrors_fired_ = 0;
  std::unordered_map<PageId, std::vector<Waiter>> waiters_;
  std::vector<Mirror> queued_;  // not routed yet
  std::vector<uint32_t> lanes_;  // RouteMirrors' scratch list
  std::vector<pull::PullSink*> detached_;  // Deliver's scratch list
  SpscQueue<UplinkMsg> queue_;
};

}  // namespace bcast::pop

#endif  // BCAST_POP_PULL_HUB_H_
