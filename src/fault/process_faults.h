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

#include <cstdint>
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
/// first.
class FaultWindows {
 public:
  /// \param rng Source of inter-window gaps (consumed incrementally).
  /// \param mean_gap Mean slots between a window's end and the next start.
  /// \param width Length of every window, in slots. May be zero
  ///   (instantaneous faults: counted by CountUpTo, never down).
  FaultWindows(Rng rng, double mean_gap, double width);

  /// True when any window overlaps the closed interval [\p from, \p to].
  bool DownDuring(double from, double to);

  /// First instant >= \p t outside every window (== \p t when \p t is up).
  double ClearTime(double t);

  /// Number of windows whose start is <= \p t.
  uint64_t CountUpTo(double t);

 private:
  /// Materializes every window with start <= \p t.
  void ExtendTo(double t);

  Rng rng_;
  double mean_gap_;
  double width_;
  /// All windows with start <= horizon_ exist in windows_.
  double horizon_ = 0.0;
  /// Sorted, non-overlapping [start, end) pairs.
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

  /// The (possibly jittered) completion time of a transmission whose
  /// nominal completion is \p nominal_end. Equal to \p nominal_end when
  /// jitter is off.
  double DeliveryEnd(double nominal_end) const;

 private:
  std::optional<FaultWindows> stalls_;
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
