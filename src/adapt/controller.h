/// \file controller.h
/// \brief The epoch-based adaptive controller (the control plane's brain).
///
/// At every epoch boundary — `epoch_cycles` major cycles of the program
/// currently on the air — the controller:
///
///   1. **Repairs frequency under loss**: drains the `LossMonitor`
///      window, picks the `max_promote` pages with the most failed
///      receptions that do not already sit on the fastest disk, and
///      promotes each one disk hotter via a seat swap (`PromotionMap`),
///      so the effective post-loss inter-arrival of lossy pages tracks
///      the paper's frequency rule.
///   1b. **Re-optimizes from measured demand** (`--adapt_reopt`): drains
///      the `AccessMonitor` window and re-seats the whole layout
///      hottest-measured-first, demoting pages whose demand cooled as
///      readily as it promotes pages whose demand grew. The disk
///      geometry (sizes and relative frequencies) stays the one the
///      schedule optimizer chose at build time; reopt re-solves the
///      page-to-disk *assignment* each epoch — for fixed geometry this
///      is exactly the optimizer's assignment rule applied to measured
///      rather than nominal frequencies.
///   2. **Adjusts the push/pull split**: feeds the pull server's epoch
///      window (mean queue depth, idle-slot rate) to a hysteresis
///      controller that grows the pull-slot count under sustained
///      backlog and shrinks it under sustained idleness, within
///      [min_slots, max_slots].
///   3. **Rebuilds and broadcasts** the program when anything changed:
///      relabels the seat program through the promotion map and switches
///      the channel (and pull server) onto it at the boundary. The seat
///      program of a push-only run is the channel's program at
///      construction, whichever optimizer built it (a bit-reversal
///      program is no chunked minor-cycle program, so it is re-applied,
///      never regenerated); with a pull server attached it is the hybrid
///      program regenerated at the new slot count. In-flight client waits
///      resync through their existing deadline/backoff machinery
///      (`BroadcastChannel::SetProgram`).
///
/// Epoch boundaries chain: the next boundary is `epoch_cycles` periods of
/// the *new* program after the switch, so boundaries always coincide with
/// major-cycle starts. The controller stops rescheduling itself once all
/// client processes have finished, letting the simulation drain.

#ifndef BCAST_ADAPT_CONTROLLER_H_
#define BCAST_ADAPT_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adapt/access_monitor.h"
#include "adapt/adapt_params.h"
#include "adapt/adapt_stats.h"
#include "adapt/loss_monitor.h"
#include "adapt/repair.h"
#include "broadcast/channel.h"
#include "broadcast/disk_config.h"
#include "des/simulation.h"
#include "pull/pull_server.h"

namespace bcast::adapt {

/// \brief The pull-slot hysteresis rule, separated out for direct unit
/// testing: a grow/shrink signal must persist for `hysteresis_epochs`
/// consecutive epochs before the count moves, and each move resets the
/// streak — so a stationary load can change the split by at most one
/// slot per hysteresis window, and a mixed signal never moves it at all.
class SlotController {
 public:
  SlotController(const AdaptParams& params, uint64_t initial_slots)
      : params_(params), slots_(initial_slots) {}

  /// One epoch decision from the measured window; returns the (possibly
  /// changed) slot count.
  uint64_t Decide(double depth_mean, double idle_rate);

  uint64_t slots() const { return slots_; }
  uint64_t grows() const { return grows_; }
  uint64_t shrinks() const { return shrinks_; }

 private:
  AdaptParams params_;
  uint64_t slots_;
  int last_dir_ = 0;     // -1 shrink, +1 grow, 0 hold
  uint64_t streak_ = 0;  // consecutive epochs of last_dir_
  uint64_t grows_ = 0;
  uint64_t shrinks_ = 0;
};

/// \brief The epoch controller; one per simulation run.
class Controller {
 public:
  /// The subsystems the controller reads and steers (all unowned; each
  /// must outlive the controller).
  struct Hooks {
    BroadcastChannel* channel = nullptr;  ///< required
    pull::PullServer* pull = nullptr;     ///< null: push-only adaptation
    LossMonitor* loss = nullptr;          ///< null: no frequency repair
    AccessMonitor* access = nullptr;      ///< null: no demand reopt
    /// Whether any client process is still running. Unset, the
    /// controller asks its own simulation (`live_processes() > 0`) —
    /// the single-sim behavior. The population engine, whose clients
    /// live in other simulations, supplies the population-wide answer.
    std::function<bool()> liveness;
    /// Observes every program switch, after the channel (and pull
    /// server) attached to this controller have been moved onto it:
    /// (new program, new hybrid layout or null on push-only runs,
    /// switch time). The population engine uses it to propagate the
    /// switch into every shard's channel replica at the epoch barrier.
    std::function<void(const BroadcastProgram*, const pull::HybridLayout*,
                       double)>
        on_switch;
  };

  /// \p layout is the disk geometry the hybrid programs are generated
  /// from; \p params must be `Active()`. Keeps the channel's current
  /// program as the push-only seat program (it must outlive the
  /// controller, as the channel requires anyway). Enables channel resync
  /// immediately (before any client wait starts).
  Controller(des::Simulation* sim, const DiskLayout& layout,
             const AdaptParams& params, Hooks hooks);

  /// Schedules the first epoch boundary; call once before `sim.Run()`.
  void Start();

  AdaptStats& stats() { return stats_; }
  const AdaptStats& stats() const { return stats_; }

  /// Current pull-slot count (the initial count on push-only runs).
  uint64_t current_slots() const { return slots_; }

  /// Simulated time of the next scheduled epoch boundary (valid after
  /// `Start()`); the population engine aligns a barrier round on it.
  double next_tick_time() const { return next_tick_; }

  /// The seat permutation accumulated so far (for tests).
  const PromotionMap& promotions() const { return perm_; }

 private:
  void Tick(double now);
  void Rebuild(double now);

  des::Simulation* sim_;
  DiskLayout layout_;
  AdaptParams params_;
  Hooks hooks_;
  const BroadcastProgram* seats_ = nullptr;  // channel's initial program
  PromotionMap perm_;
  SlotController slot_control_;
  // Every broadcast program ever on the air: the channel and in-flight
  // awaiters hold raw pointers, so retired epochs stay alive to run end.
  std::vector<std::unique_ptr<BroadcastProgram>> programs_;
  uint64_t slots_;
  double period_ = 0.0;  // period of the program currently on the air
  double next_tick_ = 0.0;  // when the next epoch boundary fires
  AdaptStats stats_;
};

}  // namespace bcast::adapt

#endif  // BCAST_ADAPT_CONTROLLER_H_
