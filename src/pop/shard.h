/// \file shard.h
/// \brief One shard of the population engine.
///
/// A shard owns a private `des::Simulation` plus replicas of everything
/// a client touches on the data path: a `BroadcastChannel` over the
/// shared program, a `fault::ServerFaultPlane` (seeded identically in
/// every shard, and deterministic under any query order, so replicas
/// agree bit-for-bit), a `ShardPullHub` standing in for the pull
/// server's air side, and a private `adapt::LossMonitor` its receivers
/// report into without synchronization. The shard's client range is a
/// contiguous block of ids, each built from (client id, purpose)-keyed
/// randomness, so a client's world does not depend on which shard owns
/// it.
///
/// Each client is a *lane* of the shard's simulation: its own clock and
/// its own small set of pending events. The engine drives a shard in
/// *rounds*: between rounds the coordinator fills one `Round` (the
/// barrier, and the previous server round's program switches and
/// pull-delivery mirrors) that every shard reads; the shard's thread
/// applies the switches and mirrors, then runs its lanes one at a time,
/// in client-id order, each to the round barrier. Within a round no
/// client's events change what another client's events see: the
/// channel keeps a per-lane view of the program, the
/// version-bump chain runs per lane, a mirror is scheduled at round
/// start into every lane that waits on its page (a pull slot is heard
/// only by waits that began by its start, and every slot start is a
/// barrier), and the server fault plane never forgets what a later lane
/// may still ask from the round start on. So a lane runs exactly as a one-client shard would, and an
/// uncoupled population — one round — runs each client start to finish
/// with its working set hot.
///
/// Shard 0 runs on the coordinator's own thread; shards 1..K-1 each run
/// on a worker thread that parks at the gate between rounds. All
/// cross-shard coupling happens at barriers; within a round the shard
/// shares nothing mutable with anyone.

#ifndef BCAST_POP_SHARD_H_
#define BCAST_POP_SHARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "adapt/loss_monitor.h"
#include "broadcast/channel.h"
#include "broadcast/disk_config.h"
#include "broadcast/program.h"
#include "common/rng.h"
#include "core/multi_client.h"
#include "core/simulator.h"
#include "des/simulation.h"
#include "fault/process_faults.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "pop/client_store.h"
#include "pop/pull_hub.h"
#include "pull/hybrid.h"

namespace bcast::pop {

/// \brief Run-level context shared (read-only) by every shard: what
/// every client world shares, plus the shard-side knobs.
struct ShardShared : WorldShared {
  bool pull_enabled = false;        ///< program carries pull capacity
  double service_interval = 0.0;    ///< initial pull service interval
  bool need_loss_monitor = false;   ///< adaptation + faults are on
  bool need_cold_wait = false;      ///< adaptation is on
  bool profile_des = false;
};

/// \brief A program switch the adaptive controller made at a round
/// barrier.
struct ProgramSwitch {
  const BroadcastProgram* program;
  double service_interval;  ///< the new layout's mean pull spacing
  double at;                ///< the barrier it happened at
};

/// \brief What every shard reads during one round. The coordinator
/// writes it only between rounds, while every worker is parked at the
/// gate (the gate's mutex publishes the writes); shards only read it.
struct Round {
  double barrier = 0.0;
  bool to_completion = false;  ///< run every lane dry, ignore `barrier`
  /// The previous server round's products: switches are applied before
  /// mirrors.
  std::vector<ProgramSwitch> switches;
  std::vector<PullMirror> mirrors;
};

/// \brief One shard: clients [begin, end) of the population.
class Shard {
 public:
  Shard(uint64_t index, uint64_t begin, uint64_t end,
        const ShardShared& shared, ClientStore* store);

  /// Builds (with `BuildClientWorld`) and spawns this shard's client
  /// worlds — client c draws from sub-stream 1000 + c of \p master —
  /// and arms the shard-local schedule-version chain. Call once, before
  /// the first round.
  Status Build(const Rng& master);

  /// Shard-thread side (the coordinator for shard 0, a worker for the
  /// rest): applies \p round's program switches and pull mirrors, then
  /// runs every lane — to the barrier, or until its pending set is empty
  /// when `to_completion`.
  void RunRound(const Round& round);

  /// Clients of this shard that have not finished their runs. Build
  /// spawns one process per client and nothing else, and a client's
  /// process ends in the same step its `finished()` flips, so the
  /// simulation's live-process count is exactly this number.
  uint64_t unfinished() const { return sim_.live_processes(); }

  uint64_t index() const { return index_; }
  uint64_t begin() const { return begin_; }
  uint64_t end() const { return end_; }

  des::Simulation& sim() { return sim_; }
  const des::Simulation& sim() const { return sim_; }

  /// The world of global client \p c (must be owned by this shard).
  ClientWorld& world(uint64_t c) { return worlds_[c - begin_]; }
  const ClientWorld& world(uint64_t c) const { return worlds_[c - begin_]; }

  /// Null when pull is off.
  ShardPullHub* hub() { return hub_.get(); }

  /// Null unless adaptation + faults are on.
  adapt::LossMonitor* loss_monitor() { return loss_monitor_.get(); }

  /// Schedule-version re-announces of the longest-living client's chain
  /// (shard-local liveness).
  uint64_t version_bumps() const { return version_ticker_.bumps(); }

  /// Version-tick events fired, every client's chain (each bump plus the
  /// chain's final dead firing) — engine-infrastructure events the merged
  /// event count must not double-report.
  uint64_t vtick_events() const { return version_ticker_.events(); }

  /// Version-tick events of the longest-living client's chain.
  uint64_t max_lane_vtick_events() const {
    return version_ticker_.max_lane_events();
  }

  /// Mirror delivery events fired — likewise engine infrastructure.
  uint64_t mirrors_fired() const {
    return hub_ != nullptr ? hub_->mirrors_fired() : 0;
  }

 private:
  uint64_t index_;
  uint64_t begin_;
  uint64_t end_;
  const ShardShared& shared_;
  ClientStore* store_;

  des::Simulation sim_;  // one lane per client, client begin_ + lane
  BroadcastChannel channel_;
  std::unique_ptr<ShardPullHub> hub_;
  std::unique_ptr<fault::ServerFaultPlane> server_faults_;
  std::unique_ptr<adapt::LossMonitor> loss_monitor_;
  std::vector<ClientWorld> worlds_;

  VersionTicker version_ticker_;
  double round_start_ = 0.0;  // every lane's clock when a round begins
};

}  // namespace bcast::pop

#endif  // BCAST_POP_SHARD_H_
