#include "fault/process_faults.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "fault/fault_model.h"

namespace bcast::fault {

FaultWindows::FaultWindows(Rng rng, double mean_gap, double width)
    : rng_(rng), mean_gap_(mean_gap), width_(width) {
  BCAST_CHECK(mean_gap_ > 0.0 && std::isfinite(mean_gap_));
  BCAST_CHECK(width_ >= 0.0 && std::isfinite(width_));
}

void FaultWindows::ExtendTo(double t) {
  while (horizon_ <= t) {
    const double start = last_end_ + rng_.NextExponential(mean_gap_);
    last_end_ = start + width_;
    windows_.emplace_back(start, last_end_);
    // Every window with start <= `start` now exists; the *next* one starts
    // strictly later only in expectation, so the horizon is exclusive.
    horizon_ = start;
    if (!std::isfinite(horizon_)) break;  // defensive: degenerate rng
  }
}

void FaultWindows::ForgetBefore(double t) {
  floor_ = std::max(floor_, t);
  // Windows are sorted by end too. One ending by the floor lies wholly
  // before every later query's instant: DownDuring and ClearTime only
  // look at windows ending after it, and CountUpTo counts it as dropped.
  auto keep = std::find_if(
      windows_.begin(), windows_.end(),
      [this](const std::pair<double, double>& w) { return w.second > floor_; });
  dropped_ += static_cast<uint64_t>(keep - windows_.begin());
  windows_.erase(windows_.begin(), keep);
}

bool FaultWindows::DownDuring(double from, double to) {
  if (width_ <= 0.0) return false;
  BCAST_CHECK_GE(from, floor_) << "fault-window query below the floor";
  ExtendTo(to);
  // First window with start > to; only its predecessor can overlap
  // [from, to] (windows are disjoint and sorted, so ends are sorted too).
  auto it = std::upper_bound(
      windows_.begin(), windows_.end(), to,
      [](double t, const std::pair<double, double>& w) { return t < w.first; });
  if (it == windows_.begin()) return false;
  return std::prev(it)->second > from;
}

double FaultWindows::ClearTime(double t) {
  if (width_ <= 0.0) return t;
  BCAST_CHECK_GE(t, floor_) << "fault-window query below the floor";
  for (;;) {
    ExtendTo(t);
    auto it = std::upper_bound(
        windows_.begin(), windows_.end(), t,
        [](double v, const std::pair<double, double>& w) {
          return v < w.first;
        });
    if (it == windows_.begin() || std::prev(it)->second <= t) return t;
    t = std::prev(it)->second;  // inside a window: hop to its end and recheck
  }
}

uint64_t FaultWindows::CountUpTo(double t) {
  BCAST_CHECK_GE(t, floor_) << "fault-window query below the floor";
  ExtendTo(t);
  auto it = std::upper_bound(
      windows_.begin(), windows_.end(), t,
      [](double v, const std::pair<double, double>& w) { return v < w.first; });
  return dropped_ + static_cast<uint64_t>(it - windows_.begin());
}

ServerFaultPlane::ServerFaultPlane(const ProcessFaultParams& params,
                                   Rng stall_rng, uint64_t jitter_salt)
    : jitter_(params.slot_jitter), jitter_salt_(jitter_salt) {
  if (params.stall_every > 0.0) {
    stalls_.emplace(stall_rng, params.stall_every, params.stall_len);
  }
}

std::unique_ptr<ServerFaultPlane> MakeServerFaultPlane(
    const FaultParams& params) {
  if (!params.process.ServerActive()) return nullptr;
  Rng salt_rng =
      FaultStream(Rng(params.fault_seed), /*client_id=*/0, Purpose::kJitter);
  return std::make_unique<ServerFaultPlane>(
      params.process,
      FaultStream(Rng(params.fault_seed), /*client_id=*/0, Purpose::kStall),
      salt_rng.Next());
}

bool ServerFaultPlane::StalledDuring(double from, double to) {
  return stalls_.has_value() && stalls_->DownDuring(from, to);
}

double ServerFaultPlane::StallClearTime(double t) {
  return stalls_.has_value() ? stalls_->ClearTime(t) : t;
}

double ServerFaultPlane::DeliveryEnd(double nominal_end) const {
  if (jitter_ <= 0.0) return nominal_end;
  // Stateless per-slot draw: splitmix64 of the nominal completion time's
  // bit pattern, salted by the run's jitter stream. Identical for every
  // listener of the slot and independent of query order.
  uint64_t state = std::bit_cast<uint64_t>(nominal_end) ^ jitter_salt_;
  const uint64_t bits = SplitMix64(&state);
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return nominal_end + jitter_ * u;
}

}  // namespace bcast::fault
