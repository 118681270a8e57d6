/// \file hybrid.h
/// \brief Hybrid push–pull broadcast programs: the multi-disk program with
/// pull slots interleaved into every minor cycle.
///
/// The hybrid program inserts `pull_per_minor` on-demand slots at fixed
/// offsets into every minor cycle of the Section-2.2 program. Because each
/// pushed page occupies a *fixed offset within its minor cycle* and recurs
/// every fixed number of minor cycles, inserting the same slot pattern
/// into every minor cycle maps those offsets through one order-preserving
/// function: every inter-arrival gap dilates uniformly from
/// `m * L` to `m * (L + s)` slots. The paper's fixed inter-arrival
/// guarantee therefore survives *exactly*, for arbitrary relative
/// frequencies and any pull slot count (property-tested in
/// tests/pull/hybrid_test.cc).
///
/// Pull slots are materialized as `kEmptySlot` in the returned
/// `BroadcastProgram` — all push-side arrival lookups work unchanged —
/// and their positions are described by the sidecar `HybridLayout`, which
/// the pull server consults to time its service decisions.

#ifndef BCAST_PULL_HYBRID_H_
#define BCAST_PULL_HYBRID_H_

#include <cstdint>
#include <vector>

#include "broadcast/disk_config.h"
#include "broadcast/program.h"

namespace bcast::pull {

/// \brief Where the pull slots sit: `pull_per_minor` fixed offsets inside
/// every minor cycle of `minor_len()` slots. A default-constructed layout
/// is disabled (pure push).
struct HybridLayout {
  /// Push slots per minor cycle (the Section-2.2 minor cycle length L).
  uint64_t push_minor_len = 0;

  /// Pull slots inserted per minor cycle (s).
  uint64_t pull_per_minor = 0;

  /// Minor cycles per period (the multi-disk max_chunks).
  uint64_t num_minor = 0;

  /// Within-minor-cycle offsets of the pull slots, strictly ascending in
  /// [0, minor_len()). Spread evenly so pull latency is phase-independent.
  std::vector<uint64_t> pull_offsets;

  /// Hybrid minor cycle length (L + s).
  uint64_t minor_len() const { return push_minor_len + pull_per_minor; }

  /// Hybrid period in slots.
  uint64_t period() const { return num_minor * minor_len(); }

  /// True when the layout carries any pull capacity.
  bool enabled() const { return pull_per_minor > 0; }

  /// Mean slots between pull-slot starts (the pull service interval);
  /// 0 when disabled.
  double ServiceInterval() const {
    return enabled() ? static_cast<double>(minor_len()) /
                           static_cast<double>(pull_per_minor)
                     : 0.0;
  }

  /// True when the slot starting at integer time offset `slot` (taken
  /// modulo the minor cycle) is a pull slot.
  bool IsPullSlot(uint64_t slot) const;

  /// Start time of the first pull slot at or after \p t; requires
  /// `enabled()`.
  double NextPullSlotStart(double t) const;

  /// Number of pull-slot starts in [0, \p t) — the pull service
  /// opportunities a run of length \p t offered.
  uint64_t PullSlotsBefore(double t) const;
};

/// \brief A hybrid program plus the layout describing its pull slots.
struct HybridProgram {
  BroadcastProgram program;
  HybridLayout layout;
};

/// \brief Builds the hybrid program: the multi-disk program of \p layout
/// with \p pull_per_minor pull slots (as `kEmptySlot`) interleaved at
/// fixed, evenly spread offsets in every minor cycle. With
/// \p pull_per_minor == 0 the result is slot-for-slot identical to
/// `GenerateMultiDiskProgram` and the layout is disabled — the zero-
/// capacity bit-identity anchor of the pull sweep gate.
Result<HybridProgram> GenerateHybridProgram(const DiskLayout& layout,
                                            uint64_t pull_per_minor);

}  // namespace bcast::pull

#endif  // BCAST_PULL_HYBRID_H_
