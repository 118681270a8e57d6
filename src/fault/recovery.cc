#include "fault/recovery.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/timeline.h"

namespace bcast::fault {

double BackoffPolicy::Next() {
  const double delay = next_;
  // Saturate *before* the multiply: once within one factor of the cap the
  // product itself can overflow to +inf at extreme retry counts or
  // extreme (base, mult, cap) choices, and a non-finite intermediate must
  // never be formed even though min(cap, inf) would happen to absorb it.
  if (next_ >= cap_ / mult_) {
    next_ = cap_;
  } else {
    next_ = std::min(cap_, next_ * mult_);
  }
  if (next_ < base_) next_ = base_;
  return delay;
}

bool DozeSchedule::Awake(double t) const {
  if (!enabled()) return true;
  const double cycle = awake_for + doze_for;
  double pos = std::fmod(t - phase, cycle);
  if (pos < 0.0) pos += cycle;
  return pos < awake_for;
}

bool DozeSchedule::AwakeDuring(double from, double to) const {
  if (!enabled()) return true;
  // Awake intervals are [k*cycle + phase, k*cycle + phase + awake_for):
  // the whole of [from, to] fits iff both ends fall in the same awake
  // stretch. A reception must not straddle a doze boundary; the slot's
  // final instant may touch the boundary exactly (to == awake end).
  const double cycle = awake_for + doze_for;
  double pos = std::fmod(from - phase, cycle);
  if (pos < 0.0) pos += cycle;
  return pos < awake_for && pos + (to - from) <= awake_for;
}

double DozeSchedule::NextWake(double t) const {
  if (Awake(t)) return t;
  const double cycle = awake_for + doze_for;
  // t sits in a doze stretch; jump to the start of the next awake one.
  const double k = std::floor((t - phase) / cycle);
  double wake = phase + (k + 1.0) * cycle;
  // Guard the boundary case where t is exactly a cycle edge.
  if (wake <= t) wake += cycle;
  return wake;
}

void FaultStats::Merge(const FaultStats& other) {
  attempts += other.attempts;
  delivered += other.delivered;
  lost += other.lost;
  corrupted += other.corrupted;
  retries += other.retries;
  doze_missed_arrivals += other.doze_missed_arrivals;
  deadline_expiries += other.deadline_expiries;
  loss_delayed_fetches += other.loss_delayed_fetches;
  crashes += other.crashes;
  crash_missed_arrivals += other.crash_missed_arrivals;
  stall_missed_arrivals += other.stall_missed_arrivals;
  version_bumps += other.version_bumps;
  extra_cycles.Merge(other.extra_cycles);
  resync_slots.Merge(other.resync_slots);
}

Receiver::Receiver(std::unique_ptr<FaultModel> model,
                   const FaultParams& params, DozeSchedule doze,
                   double period)
    : model_(std::move(model)),
      doze_(doze),
      backoff_(params.backoff_base, params.backoff_mult,
               params.backoff_cap),
      deadline_arrivals_(params.deadline_arrivals),
      period_(period) {
  BCAST_CHECK(model_ != nullptr);
  BCAST_CHECK_GT(period, 0.0);
}

void Receiver::BeginWait(PageId page, double now, double ideal_end,
                         double gap) {
  ForgetBefore(now);
  page_ = page;
  wait_ideal_end_ = ideal_end;
  wait_gap_ = std::max(gap, 1.0);
  deadline_at_ = now + static_cast<double>(deadline_arrivals_) * wait_gap_;
  wait_attempts_ = 0;
  wait_radio_off_ = 0.0;
  panic_ = false;
  backoff_.Reset();
}

bool Receiver::AudibleDuring(double from, double to) {
  if (!panic_ && !doze_.AwakeDuring(from, to)) return false;
  if (crash_ != nullptr && crash_->DownDuring(from, to)) return false;
  if (server_faults_ != nullptr && server_faults_->StalledDuring(from, to)) {
    return false;
  }
  return true;
}

double Receiver::NoteMissedArrival(double arrival_start) {
  const double slot_end = arrival_start + 1.0;
  // Causes dispatch in severity order: a crashed client has no radio
  // state to speak of, a stalled server silences even an awake radio,
  // and only then is the miss the client's own doze choice.
  if (crash_ != nullptr && crash_->DownDuring(arrival_start, slot_end)) {
    return NoteCrashMiss(arrival_start);
  }
  if (server_faults_ != nullptr &&
      server_faults_->StalledDuring(arrival_start, slot_end)) {
    return NoteStallMiss(arrival_start);
  }
  return NoteDozeMiss(arrival_start);
}

double Receiver::DeliveryEnd(double end) const {
  return server_faults_ == nullptr ? end : server_faults_->DeliveryEnd(end);
}

double Receiver::NoteCrashMiss(double arrival_start) {
  ++stats_.crash_missed_arrivals;
  const double restart = crash_->ClearTime(arrival_start + 1.0);
  wait_radio_off_ += restart - arrival_start;
  if (resync_since_ < 0.0) resync_since_ = restart;
  ApplyCrashesUpTo(restart);
  // The restart forgets the deadline clock with the rest of the volatile
  // state; re-base it at the restart instant (backoff was reset per
  // crash by ApplyCrashesUpTo).
  deadline_at_ =
      restart + static_cast<double>(deadline_arrivals_) * wait_gap_;
  return restart;
}

double Receiver::NoteStallMiss(double arrival_start) {
  ++stats_.stall_missed_arrivals;
  const double resume = server_faults_->StallClearTime(arrival_start + 1.0);
  // The radio stays on through a stall — the client listens to silence —
  // so nothing accrues to radio-off time. The transient inter-arrival
  // violation is detected the only way a client can: the reception
  // deadline expires.
  if (resume >= deadline_at_) {
    ++stats_.deadline_expiries;
    backoff_.Reset();
    if (doze_.enabled()) panic_ = true;
    deadline_at_ =
        resume + static_cast<double>(deadline_arrivals_) * wait_gap_;
    BCAST_TIMELINE(timeline_,
                   Instant(timeline_track_, "deadline_expiry", "fault",
                           resume, {{"page", static_cast<double>(page_)}}));
  }
  return resume;
}

void Receiver::ApplyCrashesUpTo(double t) {
  if (crash_ == nullptr) return;
  const uint64_t n = crash_->CountUpTo(t);
  while (applied_crashes_ < n) {
    ++applied_crashes_;
    ++stats_.crashes;
    backoff_.Reset();
    panic_ = false;  // volatile, like every other recovery timer
    BCAST_TIMELINE(timeline_,
                   Instant(timeline_track_, "crash_restart", "fault", t,
                           {{"crash", static_cast<double>(applied_crashes_)}}));
    if (crash_hook_) crash_hook_();
  }
}

double Receiver::CrashResume(double now) {
  ForgetBefore(now);
  if (crash_ == nullptr) return now;
  const double resume = crash_->ClearTime(now);
  ApplyCrashesUpTo(resume);
  return resume;
}

void Receiver::ForgetBefore(double now) {
  // Every window query this client makes from here on is about an
  // instant at or after now: scheduled arrivals start at or after the
  // instant the client listens from, and a pull slot is heard only by a
  // wait that began by its start.
  if (crash_ != nullptr) crash_->ForgetBefore(now);
  if (server_faults_ != nullptr) server_faults_->ForgetBefore(now);
}

double Receiver::NoteDozeMiss(double arrival_start) {
  ++stats_.doze_missed_arrivals;
  const double wake = doze_.NextWake(arrival_start + 1.0);
  wait_radio_off_ += wake - arrival_start;
  if (resync_since_ < 0.0) resync_since_ = wake;
  // A slept-through deadline expires on wake, not retroactively per
  // missed arrival: dozing is a choice, not a channel fault. An expired
  // deadline revokes that choice for the rest of the wait (panic
  // listening): a duty cycle commensurate with the program period would
  // otherwise hide every future arrival of this page too.
  if (wake >= deadline_at_) {
    ++stats_.deadline_expiries;
    backoff_.Reset();
    panic_ = true;
    deadline_at_ =
        wake + static_cast<double>(deadline_arrivals_) * wait_gap_;
    BCAST_TIMELINE(timeline_,
                   Instant(timeline_track_, "deadline_expiry", "fault",
                           wake, {{"page", static_cast<double>(page_)}}));
  }
  return wake;
}

bool Receiver::Attempt(PageId page, double end) {
  ++stats_.attempts;
  ++wait_attempts_;
  const std::optional<Transmission> tx = model_->Receive(page, end - 1.0);
  if (tx.has_value() && VerifyTransmission(*tx)) {
    ++stats_.delivered;
    if (resync_since_ >= 0.0) {
      stats_.resync_slots.Add(end - resync_since_);
      BCAST_TIMELINE(timeline_,
                     Span(timeline_track_, "resync", "fault", resync_since_,
                          end - resync_since_,
                          {{"page", static_cast<double>(page)}}));
      resync_since_ = -1.0;
    }
    return true;
  }
  if (!tx.has_value()) {
    ++stats_.lost;
  } else {
    ++stats_.corrupted;
  }
  ++stats_.retries;
  if (loss_sink_ != nullptr) loss_sink_->OnFailedAttempt(page);
  return false;
}

double Receiver::NextRetryTime(double now) {
  if (now >= deadline_at_) {
    // The reception deadline (k guaranteed gaps) expired: fall back to
    // the next broadcast cycle with a fresh, aggressive backoff. The
    // deadline may nominally expire mid-slot; it is acted on here, at
    // the end of the attempt that crossed it.
    ++stats_.deadline_expiries;
    backoff_.Reset();
    if (doze_.enabled()) panic_ = true;
    deadline_at_ = now + static_cast<double>(deadline_arrivals_) * wait_gap_;
    BCAST_TIMELINE(timeline_,
                   Instant(timeline_track_, "deadline_expiry", "fault", now,
                           {{"page", static_cast<double>(page_)}}));
    return now;
  }
  const double off = backoff_.Next();
  wait_radio_off_ += off;
  return now + off;
}

void Receiver::EndWait(double end) {
  last_attempts_ = std::max<uint64_t>(wait_attempts_, 1);
  last_radio_off_ = wait_radio_off_;
  if (wait_attempts_ > 1) ++stats_.loss_delayed_fetches;
  const double extra = end - wait_ideal_end_;
  if (extra > 0.0) {
    stats_.extra_cycles.Add(extra / period_);
  } else {
    stats_.extra_cycles.Add(0.0);
  }
}

std::unique_ptr<Receiver> MakeReceiver(const FaultParams& params,
                                       uint64_t client_id, double period) {
  BCAST_CHECK(params.Active());
  DozeSchedule doze;
  if (params.doze_for > 0.0) {
    doze.awake_for = params.awake_for;
    doze.doze_for = params.doze_for;
    // Per-client phase from the (client id, doze) stream: populations
    // must not doze in lockstep unless seeded to.
    Rng doze_rng = FaultStream(Rng(params.fault_seed), client_id,
                               Purpose::kDoze);
    doze.phase =
        doze_rng.NextDouble() * (params.awake_for + params.doze_for);
  }
  auto receiver = std::make_unique<Receiver>(MakeFaultModel(params, client_id),
                                             params, doze, period);
  if (params.process.CrashActive()) {
    receiver->EnableCrashes(std::make_unique<FaultWindows>(
        FaultStream(Rng(params.fault_seed), client_id, Purpose::kCrash),
        params.process.crash_every, params.process.crash_down));
  }
  return receiver;
}

}  // namespace bcast::fault
