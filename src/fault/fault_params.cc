#include "fault/fault_params.h"

#include <cmath>

#include "common/string_util.h"

namespace bcast::fault {

Status ProcessFaultParams::Validate() const {
  if (crash_every < 0.0 || !std::isfinite(crash_every)) {
    return Status::InvalidArgument("crash_every must be finite and >= 0");
  }
  if (crash_down < 0.0 || !std::isfinite(crash_down)) {
    return Status::InvalidArgument("crash_down must be finite and >= 0");
  }
  if ((crash_down > 0.0 || crash_cold) && crash_every <= 0.0) {
    return Status::InvalidArgument(
        "crash_down/crash_cold require crash_every > 0");
  }
  if (stall_every < 0.0 || !std::isfinite(stall_every)) {
    return Status::InvalidArgument("stall_every must be finite and >= 0");
  }
  if (stall_len < 0.0 || !std::isfinite(stall_len)) {
    return Status::InvalidArgument("stall_len must be finite and >= 0");
  }
  if (stall_every > 0.0 && stall_len <= 0.0) {
    return Status::InvalidArgument("stall_every > 0 requires stall_len > 0");
  }
  if (stall_len > 0.0 && stall_every <= 0.0) {
    return Status::InvalidArgument("stall_len requires stall_every > 0");
  }
  if (!(slot_jitter >= 0.0 && slot_jitter < 1.0) ||
      !std::isfinite(slot_jitter)) {
    // A transmission may finish late but must complete before the *next*
    // slot's nominal completion, or slot ordering inverts.
    return Status::InvalidArgument("slot_jitter must be in [0, 1)");
  }
  if (version_every < 0.0 || !std::isfinite(version_every)) {
    return Status::InvalidArgument("version_every must be finite and >= 0");
  }
  if (version_every > 0.0 && version_every < 1.0) {
    return Status::InvalidArgument("version_every must be >= 1 slot");
  }
  return Status::OK();
}

std::string ProcessFaultParams::ToString() const {
  if (!Active()) return "";
  return StrFormat("proc<crash=%g/%g:%s,stall=%g/%g,jitter=%g,version=%g>",
                   crash_every, crash_down, crash_cold ? "cold" : "warm",
                   stall_every, stall_len, slot_jitter, version_every);
}

Status FaultParams::Validate() const {
  if (!(loss >= 0.0 && loss < 1.0) || !std::isfinite(loss)) {
    return Status::InvalidArgument("fault loss must be in [0, 1)");
  }
  if (!(corrupt >= 0.0 && corrupt < 1.0) || !std::isfinite(corrupt)) {
    return Status::InvalidArgument("fault corrupt must be in [0, 1)");
  }
  if (burst_len < 0.0 || !std::isfinite(burst_len)) {
    return Status::InvalidArgument("fault burst_len must be finite and >= 0");
  }
  if (doze_for < 0.0 || !std::isfinite(doze_for)) {
    return Status::InvalidArgument("fault doze_for must be finite and >= 0");
  }
  if (doze_for > 0.0 && (awake_for < 1.0 || !std::isfinite(awake_for))) {
    // A whole transmission (one slot) must fit in an awake window, or no
    // reception can ever complete.
    return Status::InvalidArgument(
        "fault awake_for must be >= 1 slot when doze_for > 0");
  }
  if (deadline_arrivals == 0) {
    return Status::InvalidArgument("fault deadline_arrivals must be >= 1");
  }
  if (backoff_base < 0.0 || !std::isfinite(backoff_base)) {
    return Status::InvalidArgument(
        "fault backoff_base must be finite and >= 0");
  }
  if (backoff_mult < 1.0 || !std::isfinite(backoff_mult)) {
    return Status::InvalidArgument("fault backoff_mult must be >= 1");
  }
  if (backoff_cap < backoff_base || !std::isfinite(backoff_cap)) {
    return Status::InvalidArgument(
        "fault backoff_cap must be finite and >= backoff_base");
  }
  return process.Validate();
}

std::string FaultParams::ToString() const {
  if (!Active()) return "";
  std::string s = StrFormat(
      "fault<loss=%g,burst=%g,corrupt=%g,doze=%g/%g,k=%llu,backoff=%g..%g,"
      "seed=%llu>",
      loss, burst_len, corrupt, doze_for, doze_for > 0.0 ? awake_for : 0.0,
      static_cast<unsigned long long>(deadline_arrivals), backoff_base,
      backoff_cap, static_cast<unsigned long long>(fault_seed));
  if (process.Active()) s.append(",").append(process.ToString());
  return s;
}

}  // namespace bcast::fault
