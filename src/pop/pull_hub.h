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
/// Requests flow the other way as plain data: a client's `PullClient`
/// appends each submit to its shard's uplink list during a round, and at
/// the round barrier, with every shard parked, the coordinator takes all
/// the lists and replays the submits against the real server in
/// canonical (time, client) order, so admission accounting and
/// per-client uplink loss draws are identical for every shard count.
///
/// The shard runs its clients as lanes of one simulation (pop/shard.h),
/// so a mirror goes only to the lanes that wait on its page. A pull slot
/// is heard only by waits that began by its start
/// (`BroadcastChannel::PageAwaiter::OnPullDelivery`), and the slot
/// starts by the round that mirrors it (every slot start is a barrier).
/// So the lanes waiting on the page at round start are all the lanes the
/// slot can reach, and each of the round's mirrors is scheduled into each
/// of them then. A delivery is a verbatim mirror of
/// `PullServer::DeliverPage` — detach-then-offer with re-registration on
/// refusal — for the lane's own waiters, and the consumed-offer count
/// lands in a shard-local counter that the engine sums into the merged
/// stats (hub order is irrelevant: the counter is an integer).

#ifndef BCAST_POP_PULL_HUB_H_
#define BCAST_POP_PULL_HUB_H_

#include <cstdint>
#include <vector>

#include "broadcast/types.h"
#include "des/simulation.h"
#include "pull/pull_client.h"
#include "pull/pull_sink.h"
#include "pull/pull_stats.h"

namespace bcast::pop {

/// \brief One uplink submit, handed from a shard to the coordinator at
/// the round barrier.
struct UplinkMsg {
  double t = 0.0;          ///< simulation time of the submit
  uint64_t client = 0;     ///< submitting client id (global)
  PageId page = 0;         ///< requested page
  bool re_request = false; ///< timeout-driven re-send
};

/// \brief A pull transmission of the coordinator's server: its page and
/// the end of its slot (strictly after the barrier that produced it).
struct PullMirror {
  PageId page;
  double end;
};

/// \brief Shard-local waiter table + uplink list for one shard.
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

  /// Shard side, at the top of a round, every lane's clock at the round
  /// start: routes the previous server round's \p mirrors to the lanes
  /// waiting on their pages (see the file comment). Enters each such
  /// lane.
  void RouteMirrors(const std::vector<PullMirror>& mirrors);

  /// Transport for client \p client_id: submits land in this shard's
  /// uplink list, delivery/latency accounting lands in \p stats (the
  /// client's own store block).
  pull::PullTransport MakeTransport(uint64_t client_id,
                                    pull::PullStats* stats);

  /// Coordinator side, at the barrier: appends the submits made since
  /// the last call to \p out, in submit order, and empties the list.
  void TakeUplink(std::vector<UplinkMsg>* out) {
    out->insert(out->end(), uplink_.begin(), uplink_.end());
    uplink_.clear();
  }

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

 private:
  struct Waiter {
    pull::PullSink* sink;
    uint32_t lane;
  };

  // Mirror of `PullServer::DeliverPage` for the entered lane's waiters
  // on \p page.
  void Deliver(PageId page, double end);

  des::Simulation* sim_;
  bool enabled_;
  double service_interval_;
  uint64_t pull_deliveries_ = 0;
  uint64_t mirrors_fired_ = 0;
  // Registered waiters of each page in registration order, indexed by
  // page and grown on demand; an emptied list keeps its storage.
  std::vector<std::vector<Waiter>> waiters_;
  std::vector<UplinkMsg> uplink_;  // this round's submits, in order
  std::vector<uint32_t> lanes_;  // RouteMirrors' scratch list
  std::vector<pull::PullSink*> detached_;  // Deliver's scratch list
};

}  // namespace bcast::pop

#endif  // BCAST_POP_PULL_HUB_H_
