/// \file channel.h
/// \brief The broadcast channel: connects a program to simulated time.
///
/// The server side of the paper's architecture is fully described by its
/// periodic program; at simulated time t, slot `floor(t) mod period` is on
/// the air. A client process obtains a page with
/// `co_await channel->WaitForPage(p)` — it resumes when the next complete
/// transmission of p has been received (a transmission already in progress
/// cannot be joined mid-slot).
///
/// The medium itself is perfect; receivers are not. A wait made through
/// `WaitForPage(p, receiver)` consults the client's `fault::Receiver` on
/// every scheduled arrival: a transmission the radio lost, decoded
/// corrupt (checksum mismatch), or dozed through does NOT satisfy the
/// waiter — the channel re-arms for the next transmission after the
/// receiver's backoff/wake time, and only an intact reception resumes
/// the client. A null receiver is the ideal lossless path, bit-identical
/// to the pre-fault behavior.
///
/// With a pull server attached (hybrid push–pull, src/pull), every wait
/// also registers with the server's waiter table: a pull slot that
/// transmits the awaited page resumes the waiter early, cancelling its
/// pending push arrival — push and pull race, first intact reception
/// wins. A null pull server (the default) keeps every wait on the pure
/// push path, bit-identical to the pre-pull behavior.

#ifndef BCAST_BROADCAST_CHANNEL_H_
#define BCAST_BROADCAST_CHANNEL_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "broadcast/program.h"
#include "des/simulation.h"
#include "fault/recovery.h"
#include "pull/pull_sink.h"

namespace bcast {

/// \brief A shared broadcast medium carrying one `BroadcastProgram`.
///
/// Any number of client processes may wait on the channel concurrently;
/// it is a pure broadcast, so waits never contend.
class BroadcastChannel {
 public:
  /// Creates a channel broadcasting \p program on \p sim's clock.
  /// Both must outlive the channel.
  BroadcastChannel(des::Simulation* sim, const BroadcastProgram* program);

  /// The program on the air.
  const BroadcastProgram& program() const { return *program_; }

  /// Attaches the hybrid pull provider's waiter table (unowned; must
  /// outlive the channel). Waits started afterwards race push against
  /// pull. Single-threaded paths pass the `PullServer` itself; the
  /// population engine passes its shard-local pull hub.
  void AttachPullServer(pull::WaiterRegistry* registry) { pull_ = registry; }

  /// Start time of the next transmission of \p p at or after now.
  double NextArrivalStart(PageId p) const {
    return ArrivalStart(p, sim_->Now());
  }

  /// Tracks every in-flight stateful wait so `SetProgram` can re-arm it.
  /// Must be called before any waits start; only waits that carry a
  /// receiver or race a pull server are tracked (the adaptive control
  /// plane guarantees one of the two by validation). On a simulation
  /// with several lanes, each lane then gets its own view of the program
  /// (program, cycle origin, in-flight waits), switched with the lane:
  /// a version bump in one lane must not re-phase the others.
  void EnableResync();

  /// Switches the on-air schedule to \p program at simulated time \p now
  /// (an epoch boundary: every slot of the old program has ended). The
  /// new program's cycle starts at \p now; all in-flight waits are
  /// re-armed onto it via their existing deadline/backoff machinery.
  /// Requires `EnableResync()` before the first wait.
  void SetProgram(const BroadcastProgram* program, double now);

  /// Awaitable that resumes once \p p has been fully received intact.
  /// With a receiver attached, lost/corrupted/dozed-through transmissions re-arm the
  /// wait instead of resuming it. With a pull server attached, a pull
  /// slot carrying \p p can satisfy the wait before the push schedule
  /// does.
  class PageAwaiter : public pull::PullSink {
   public:
    PageAwaiter(BroadcastChannel* channel, PageId page,
                fault::Receiver* receiver = nullptr)
        : channel_(channel), page_(page), receiver_(receiver) {}

    bool await_ready() const noexcept { return false; }
    /// False when an ideal-channel wait continues inline (no suspension).
    bool await_suspend(std::coroutine_handle<> h);
    /// Returns the wait duration in broadcast units.
    double await_resume() const noexcept { return wait_; }

    /// A pull slot transmitted page_ (see pull::PullSink). Consumes it —
    /// cancelling the pending push arrival and resuming the waiter —
    /// unless the wait began after the slot started or this client's
    /// radio missed the transmission.
    bool OnPullDelivery(double deliver_end) override;

    /// The on-air program changed at \p now: cancel the pending push
    /// arrival and re-arm against the new schedule. The receiver's wait
    /// state (deadline, backoff, attempt counts) carries over — resync
    /// rides the existing recovery machinery.
    void Resync(double now);

   private:
    friend class BroadcastChannel;  // walks and edits the in-flight list

    // Arms the next audible arrival of page_ at or after listen_from;
    // the fired event draws the fault outcome and either resumes h or
    // re-arms. Only used on the faulty path.
    void ScheduleAttempt(std::coroutine_handle<> h, double listen_from);

    // Completes the wait at `end`: deregisters from the pull server,
    // stamps via-pull, and resumes the coroutine.
    void Finish(std::coroutine_handle<> h, double end, bool via_pull);

    BroadcastChannel* channel_;
    PageId page_;
    fault::Receiver* receiver_;
    std::coroutine_handle<> handle_;
    double start_ = 0.0;
    double wait_ = 0.0;
    // Pending push-side event (arrival or re-arm), cancelled when pull
    // wins the race. Only maintained while registered with a pull server.
    des::EventQueue::EventId pending_ = 0;
    bool registered_ = false;
    // Links in the channel's in-flight list (resync mode only).
    PageAwaiter* prev_ = nullptr;
    PageAwaiter* next_ = nullptr;
  };

  /// Waits for the next complete broadcast of \p p over the ideal
  /// channel (\p receiver == nullptr), or through \p receiver's fault
  /// model and recovery policy.
  PageAwaiter WaitForPage(PageId p, fault::Receiver* receiver = nullptr) {
    return PageAwaiter(this, p, receiver);
  }

  /// Whether the most recently completed wait was satisfied by a pull
  /// slot. Valid immediately after the wait resumes (the resumed
  /// coroutine runs synchronously inside the delivering event); always
  /// false without a pull server.
  bool last_wait_via_pull() const { return last_wait_via_pull_; }

 private:
  friend class PageAwaiter;

  // Next arrival start/end of \p p at or after \p t under the current
  // program, whose cycle began at origin_. With origin_ == 0 (every
  // non-adaptive run) the translation is exact: `t - 0.0 == t` and
  // `0.0 + x == x` bitwise, so these reproduce the historical direct
  // calls bit-for-bit.
  double ArrivalStart(PageId p, double t) const {
    return origin_ + program_->NextArrivalStart(p, t - origin_);
  }
  double ArrivalEnd(PageId p, double t) const {
    return origin_ + program_->NextArrivalEnd(p, t - origin_);
  }

  des::Simulation* sim_;
  const BroadcastProgram* program_;
  double origin_ = 0.0;  // simulated time the current program's cycle began
  pull::WaiterRegistry* pull_ = nullptr;
  // In-flight waits, resync mode only: an intrusive list in start order,
  // so a finishing wait unlinks in O(1) and SetProgram re-arms in order.
  void LinkActive(PageAwaiter* waiter);
  void UnlinkActive(PageAwaiter* waiter);

  bool resync_enabled_ = false;
  PageAwaiter* active_head_ = nullptr;
  PageAwaiter* active_tail_ = nullptr;

  // The lane-dependent state of the channel, saved per lane while
  // another lane is entered (resync mode on a multi-lane simulation).
  struct LaneView {
    const BroadcastProgram* program;
    double origin;
    PageAwaiter* head;
    PageAwaiter* tail;
  };
  void SwitchLane(uint32_t from, uint32_t to);
  std::vector<LaneView> lane_views_;
  bool last_wait_via_pull_ = false;
};

}  // namespace bcast

#endif  // BCAST_BROADCAST_CHANNEL_H_
