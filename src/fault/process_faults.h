/// \file process_faults.h
/// \brief Process-level fault machinery: seeded crash/stall windows and
/// the server-side fault plane (stalls + slot jitter).
///
/// Channel faults (fault_model.h) decide per-transmission outcomes;
/// process faults remove whole *stretches* of the timeline. Both a client
/// crash and a server stall are modelled as a lazily-generated, sorted
/// sequence of downtime windows drawn from an exponential renewal
/// process. The windows are a pure function of their seed stream, so any
/// scenario is exactly reproducible and queries at any instant are
/// deterministic regardless of event-processing order — a requirement for
/// the heap/calendar DES backends to stay bit-identical.

#ifndef BCAST_FAULT_PROCESS_FAULTS_H_
#define BCAST_FAULT_PROCESS_FAULTS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault/fault_params.h"

namespace bcast::fault {

/// \brief A lazily-extended sorted sequence of downtime windows
/// [start, start + width) with exponential inter-window gaps.
///
/// Used for both client crash schedules (one per client, keyed by the
/// (client id, kCrash) fault stream) and server stall schedules (one per
/// run, keyed by (0, kStall)). Windows never overlap; consecutive windows
/// may touch. All queries extend the materialized horizon as needed, so
/// a window is generated exactly once no matter which query sees it
/// first. `ForgetBefore` raises a floor below which no later query may
/// reach; windows that end by the floor are dropped (only counted), so
/// memory stays bounded however long the run.
class FaultWindows {
 public:
  /// \param rng Source of inter-window gaps (consumed incrementally).
  /// \param mean_gap Mean slots between a window's end and the next start.
  /// \param width Length of every window, in slots. May be zero
  ///   (instantaneous faults: counted by CountUpTo, never down).
  FaultWindows(Rng rng, double mean_gap, double width);

  /// True when any window overlaps the closed interval [\p from, \p to].
  /// \p from must not be below the floor.
  bool DownDuring(double from, double to);

  /// First instant >= \p t outside every window (== \p t when \p t is up).
  /// \p t must not be below the floor.
  double ClearTime(double t);

  /// Number of windows whose start is <= \p t, dropped ones included.
  /// \p t must not be below the floor.
  uint64_t CountUpTo(double t);

  /// Promises that no later query asks about an instant before \p t (a
  /// lower \p t leaves the floor where it is) and drops every window
  /// that ends by the floor: none of them can answer a query any more.
  void ForgetBefore(double t);

  /// Windows currently held (materialized and not yet dropped).
  size_t retained() const { return windows_.size(); }

 private:
  /// Materializes every window with start <= \p t.
  void ExtendTo(double t);

  Rng rng_;
  double mean_gap_;
  double width_;
  /// All windows with start <= horizon_ have been generated.
  double horizon_ = 0.0;
  /// End of the last generated window: where the next gap starts.
  double last_end_ = 0.0;
  /// No query may ask about an instant before floor_.
  double floor_ = 0.0;
  /// Generated windows dropped by ForgetBefore (all start before floor_).
  uint64_t dropped_ = 0;
  /// Sorted, non-overlapping [start, end) pairs not yet dropped.
  std::vector<std::pair<double, double>> windows_;
};

/// \brief Server-side process faults, shared by every client of a run:
/// transmission stalls and deterministic per-slot delivery jitter.
///
/// Stalls silence the channel for a run of slots — arrivals inside a
/// stall window reach nobody, and the schedule resumes on its nominal
/// boundaries (airtime is lost, never shifted), so per-page inter-arrival
/// is violated transiently. Jitter delays each transmission's completion
/// by `slot_jitter * u(slot)` slots where `u` is a stateless hash of the
/// nominal completion time: every listener of a slot sees the same jitter
/// and the draw consumes no RNG state, keeping results independent of
/// which clients happen to listen.
class ServerFaultPlane {
 public:
  /// \param params Process-fault knobs (only stall/jitter fields used).
  /// \param stall_rng The (0, kStall) fault stream.
  /// \param jitter_salt 64-bit salt from the (0, kJitter) fault stream.
  ServerFaultPlane(const ProcessFaultParams& params, Rng stall_rng,
                   uint64_t jitter_salt);

  /// True when a stall window overlaps [\p from, \p to].
  bool StalledDuring(double from, double to);

  /// First instant >= \p t outside every stall window.
  double StallClearTime(double t);

  /// No later query asks about an instant before \p t (see
  /// `FaultWindows::ForgetBefore`) — capped at `CapFloor`'s bound.
  void ForgetBefore(double t) {
    if (stalls_.has_value()) stalls_->ForgetBefore(std::min(t, floor_cap_));
  }

  /// Keeps `ForgetBefore` from raising the floor above \p cap. Clients
  /// that share the plane but run one after another (the lanes of a
  /// population shard) each promise only about their own clock; the
  /// owner caps the floor at the earliest clock any of them may still
  /// query from. Unbounded by default.
  void CapFloor(double cap) { floor_cap_ = cap; }

  /// The (possibly jittered) completion time of a transmission whose
  /// nominal completion is \p nominal_end. Equal to \p nominal_end when
  /// jitter is off.
  double DeliveryEnd(double nominal_end) const;

 private:
  std::optional<FaultWindows> stalls_;
  double floor_cap_ = std::numeric_limits<double>::infinity();
  double jitter_;
  uint64_t jitter_salt_;
};

/// \brief The run's server fault plane for \p params: stalls from the
/// (0, kStall) fault stream, the jitter salt from (0, kJitter). Every
/// replica built from the same params answers exactly like one shared
/// plane, so each population shard may own its own. Null when no
/// server-side axis is on: an inactive run attaches and draws nothing.
std::unique_ptr<ServerFaultPlane> MakeServerFaultPlane(
    const FaultParams& params);

}  // namespace bcast::fault

#endif  // BCAST_FAULT_PROCESS_FAULTS_H_
