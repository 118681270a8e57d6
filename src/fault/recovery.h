/// \file recovery.h
/// \brief Client-side recovery from an unreliable broadcast channel.
///
/// The broadcast repeats every page forever, so a receiver's recovery
/// story is *when to listen again*, not whom to ask: after a failed
/// reception the client backs off (radio off, capped exponential — energy
/// for latency), re-tunes for the next transmission, and if a whole
/// reception deadline (k guaranteed inter-arrival gaps, Section 2.2)
/// passes without an intact copy it declares the attempt expired, resets
/// its backoff, and falls back to the next broadcast cycle. Doze windows
/// (generalizing the sleepers/workaholics model) silence the radio
/// entirely; on wake the client must resynchronize, and the time until
/// its first intact reception is measured.
///
/// `Receiver` packages all of this per client; `BroadcastChannel`
/// consults it on every scheduled arrival, so a damaged transmission
/// never satisfies a waiter.

#ifndef BCAST_FAULT_RECOVERY_H_
#define BCAST_FAULT_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "broadcast/types.h"
#include "fault/fault_model.h"
#include "fault/fault_params.h"
#include "fault/process_faults.h"
#include "obs/histogram.h"

namespace bcast::obs {
class TimelineWriter;
}  // namespace bcast::obs

namespace bcast::fault {

/// \brief Capped exponential backoff with overflow-proof arithmetic: the
/// delay is clamped to the cap on every step, so any number of
/// consecutive failures (including millions at extreme loss) keeps the
/// value finite.
class BackoffPolicy {
 public:
  BackoffPolicy(double base, double mult, double cap)
      : base_(base), mult_(mult), cap_(cap), next_(base) {}

  /// Delay (slots) to apply after the latest failure; grows by `mult`
  /// per call up to `cap`.
  double Next();

  /// Back to the base delay (after a success or a deadline expiry).
  void Reset() { next_ = base_; }

  /// The delay the next failure would incur (for tests).
  double peek() const { return next_; }

 private:
  double base_;
  double mult_;
  double cap_;
  double next_;
};

/// \brief A periodic radio duty cycle: awake for `awake_for` units, then
/// deaf for `doze_for`, repeating, offset by `phase`. An all-zero
/// schedule is always awake.
struct DozeSchedule {
  double awake_for = 0.0;
  double doze_for = 0.0;
  double phase = 0.0;

  bool enabled() const { return doze_for > 0.0; }

  /// True when the radio is on at time \p t.
  bool Awake(double t) const;

  /// True when the radio is on for the whole interval [\p from, \p to]
  /// — a transmission must be heard from its first bit to its last.
  bool AwakeDuring(double from, double to) const;

  /// Earliest time >= \p t at which the radio is (back) on.
  double NextWake(double t) const;
};

/// \brief Degradation counters and histograms for one receiver (or a
/// merged population).
struct FaultStats {
  /// Transmissions the radio listened to (doze-skipped slots excluded).
  uint64_t attempts = 0;

  /// Listened transmissions received intact (checksum verified).
  uint64_t delivered = 0;

  /// Listened transmissions lost outright.
  uint64_t lost = 0;

  /// Listened transmissions decoded but discarded on checksum mismatch.
  uint64_t corrupted = 0;

  /// Failed receptions that forced a re-wait (== lost + corrupted).
  uint64_t retries = 0;

  /// Wanted arrivals that fell (even partially) into a doze window.
  uint64_t doze_missed_arrivals = 0;

  /// Reception deadlines (k expected arrivals) that expired.
  uint64_t deadline_expiries = 0;

  /// Broadcast fetches that needed more than one reception attempt —
  /// the misses delayed by loss, as opposed to plain cold misses.
  uint64_t loss_delayed_fetches = 0;

  /// Crash–restart episodes applied (volatile state wiped).
  uint64_t crashes = 0;

  /// Wanted arrivals that fell into a crash downtime window.
  uint64_t crash_missed_arrivals = 0;

  /// Wanted arrivals that fell into a server stall window.
  uint64_t stall_missed_arrivals = 0;

  /// Schedule-version bumps the server applied mid-run. Set by the
  /// simulator wiring (a per-run fact, not a per-receiver one); a merged
  /// population carries the run's count, not a per-client sum.
  uint64_t version_bumps = 0;

  /// Extra broadcast cycles waited per fetch versus the ideal lossless,
  /// always-awake receiver.
  obs::LogHistogram extra_cycles;

  /// Slots from waking out of a doze window to the next intact
  /// reception (time-to-resync).
  obs::LogHistogram resync_slots;

  /// Fraction of listened transmissions received intact; 1 when nothing
  /// was listened to.
  double delivery_ratio() const {
    return attempts == 0 ? 1.0
                         : static_cast<double>(delivered) /
                               static_cast<double>(attempts);
  }

  /// Folds \p other in (multi-client / multi-seed aggregation).
  void Merge(const FaultStats& other);
};

/// \brief Observer of failed reception attempts, keyed by physical page.
///
/// The adaptive control plane (src/adapt) implements this to measure
/// per-page loss without the fault layer depending on it. A receiver
/// with no sink attached pays one predictable branch per failure.
class PageLossSink {
 public:
  virtual ~PageLossSink() = default;

  /// A listened transmission of \p page was lost or discarded corrupt.
  virtual void OnFailedAttempt(PageId page) = 0;
};

/// \brief One client's radio: fault model + doze schedule + recovery
/// policy + degradation accounting. Consulted by `BroadcastChannel`
/// during a faulty wait; owns no simulation state of its own.
class Receiver {
 public:
  /// \param model   The channel impairment (owned).
  /// \param params  Recovery knobs (deadline, backoff).
  /// \param doze    Radio duty cycle (all-zero = always awake).
  /// \param period  Broadcast period in slots (normalizes extra cycles).
  Receiver(std::unique_ptr<FaultModel> model, const FaultParams& params,
           DozeSchedule doze, double period);

  /// \name Wait protocol, driven by BroadcastChannel::PageAwaiter.
  /// @{

  /// A fetch of \p page begins at \p now; \p ideal_end is when the ideal
  /// lossless receiver would hold the page, \p gap the page's guaranteed
  /// inter-arrival spacing (deadline scale).
  void BeginWait(PageId page, double now, double ideal_end, double gap);

  /// True when the radio can hear the whole slot [\p from, \p to].
  bool AwakeDuring(double from, double to) const {
    return doze_.AwakeDuring(from, to);
  }

  /// True when the client can receive the whole slot [\p from, \p to]:
  /// awake (dozing is waived while panic listening is armed — see
  /// `panic_`), not crashed, and the server is not stalled. Collapses to
  /// `AwakeDuring` when no process faults are attached (bit-identical
  /// fast path). Non-const: window schedules extend lazily.
  bool AudibleDuring(double from, double to);

  /// The wanted arrival starting at \p arrival_start was inaudible;
  /// dispatches on the cause (crash > stall > doze) and returns the
  /// earliest time to resume listening. Equals `NoteDozeMiss` when no
  /// process faults are attached.
  double NoteMissedArrival(double arrival_start);

  /// The wanted arrival starting at \p arrival_start fell into a doze
  /// window; returns the earliest time to resume listening.
  double NoteDozeMiss(double arrival_start);

  /// The (possibly jittered) completion time of the transmission with
  /// nominal completion \p end; equal to \p end without a server plane.
  double DeliveryEnd(double end) const;

  /// The transmission of \p page ending at \p end was heard in full;
  /// draws the fault outcome, verifies the checksum, and accounts.
  /// True iff the page is intact in hand (the wait is over).
  bool Attempt(PageId page, double end);

  /// Time to resume listening after the failed attempt at \p now:
  /// `now + backoff`, with deadline-expiry fallback folded in.
  double NextRetryTime(double now);

  /// The wait that began at BeginWait ended successfully at \p end.
  void EndWait(double end);
  /// @}

  /// Attempts made by the most recent completed wait (>= 1); the tuning
  /// cost of a schedule-aware client is one slot per attempt.
  uint64_t last_wait_attempts() const { return last_attempts_; }

  /// Slots of the most recent wait spent with the radio off (backoff +
  /// doze): an ignorant client's tuning cost is wait minus this.
  double last_wait_radio_off() const { return last_radio_off_; }

  const FaultStats& stats() const { return stats_; }
  const DozeSchedule& doze() const { return doze_; }

  /// Attaches a per-page loss observer (unowned; may be null). Shared by
  /// every receiver of a population in adaptive runs.
  void AttachLossSink(PageLossSink* sink) { loss_sink_ = sink; }

  /// Attaches a timeline writer (unowned; may be null): recovery
  /// episodes — deadline expiries and doze-to-intact resyncs — are
  /// emitted on \p track (the owning client's timeline track).
  void AttachTimeline(obs::TimelineWriter* timeline, uint32_t track) {
    timeline_ = timeline;
    timeline_track_ = track;
  }

  /// \name Process-fault plane (src/fault/process_faults).
  /// @{

  /// Installs this client's crash schedule (owned). Without one every
  /// crash query is a no-op.
  void EnableCrashes(std::unique_ptr<FaultWindows> windows) {
    crash_ = std::move(windows);
  }

  /// Called once per applied crash, after timers are reset: wiring hooks
  /// the pull client's volatile state and (cold restarts) the cache here.
  void SetCrashHook(std::function<void()> hook) {
    crash_hook_ = std::move(hook);
  }

  /// Attaches the run's shared server fault plane (unowned; may be null).
  void AttachServerFaults(ServerFaultPlane* plane) { server_faults_ = plane; }

  /// Applies any crash whose window has opened by \p now and returns the
  /// earliest instant >= \p now the client is up (== \p now when no crash
  /// is in progress). Called by the client loop between requests; crashes
  /// mid-wait are applied by `NoteMissedArrival` instead.
  double CrashResume(double now);
  /// @}

 private:
  /// The wanted arrival starting at \p arrival_start fell into a crash
  /// downtime window: apply the crash, wipe volatile timers, and resume
  /// at the restart instant.
  double NoteCrashMiss(double arrival_start);

  /// The wanted arrival starting at \p arrival_start fell into a server
  /// stall window: keep listening (radio stays on) and let the deadline
  /// machinery register the staleness.
  double NoteStallMiss(double arrival_start);

  /// Applies every crash with start <= \p t exactly once (the awaiter
  /// path and the client-loop poll share the applied counter).
  void ApplyCrashesUpTo(double t);

  /// The client's clock reached \p now: lets the crash and stall
  /// schedules drop the windows no later query can reach.
  void ForgetBefore(double now);

  std::unique_ptr<FaultModel> model_;
  PageLossSink* loss_sink_ = nullptr;
  obs::TimelineWriter* timeline_ = nullptr;
  uint32_t timeline_track_ = 0;
  std::unique_ptr<FaultWindows> crash_;
  ServerFaultPlane* server_faults_ = nullptr;
  std::function<void()> crash_hook_;
  uint64_t applied_crashes_ = 0;
  DozeSchedule doze_;
  BackoffPolicy backoff_;
  uint64_t deadline_arrivals_;
  double period_;
  FaultStats stats_;

  // Per-wait scratch.
  PageId page_ = 0;
  double wait_ideal_end_ = 0.0;
  double wait_gap_ = 1.0;
  double deadline_at_ = 0.0;
  uint64_t wait_attempts_ = 0;
  double wait_radio_off_ = 0.0;
  uint64_t last_attempts_ = 1;
  double last_radio_off_ = 0.0;

  // Pending resynchronization: set on the first doze miss of an episode,
  // cleared (and measured) by the next intact reception.
  double resync_since_ = -1.0;

  // Panic listening: armed by a deadline expiry while dozing is enabled,
  // cleared at the next BeginWait (and, with the rest of the volatile
  // recovery state, by a crash restart). While armed the client forgoes
  // dozing for the remainder of the wait. Without it a strictly periodic
  // duty cycle commensurate with the (possibly re-anchored) program
  // period can starve a page forever: every one of its arrivals lands in
  // a doze window, and no amount of backoff changes the phase.
  bool panic_ = false;
};

/// \brief Builds the complete receiver for \p client_id from \p params
/// (must be `Active()`): fault model, doze schedule with a per-client
/// random phase, recovery policy. \p period is the broadcast period.
std::unique_ptr<Receiver> MakeReceiver(const FaultParams& params,
                                       uint64_t client_id, double period);

}  // namespace bcast::fault

#endif  // BCAST_FAULT_RECOVERY_H_
