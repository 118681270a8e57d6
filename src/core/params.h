/// \file params.h
/// \brief Full parameterization of one simulation run (paper Tables 2-4).

#ifndef BCAST_CORE_PARAMS_H_
#define BCAST_CORE_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adapt/adapt_params.h"
#include "cache/factory.h"
#include "client/access_generator.h"
#include "client/mapping.h"
#include "common/status.h"
#include "fault/fault_params.h"
#include "pull/pull_params.h"

namespace bcast {

/// \brief Which logical pages participate in the Noise coin toss.
///
/// The paper's wording ("for each page in the mapping, a coin weighted by
/// Noise is tossed") reads as every page, but under that reading high
/// Noise scrambles the small fast disk so thoroughly (destination disks
/// are chosen uniformly) that even PIX falls slightly behind the flat
/// baseline, contradicting the Figure-9/10 claim. Restricting coins to
/// the client's AccessRange — the pages whose placement matters to the
/// modelled client — reproduces the published curves; it is therefore the
/// default. See DESIGN.md.
enum class NoiseScope {
  kAccessRange,  ///< Coins for logical pages [0, AccessRange) (default).
  kAllPages,     ///< Coins for every page in the mapping.
};

/// \brief Which kind of broadcast program the server transmits.
enum class ProgramKind {
  kMultiDisk,  ///< The Section-2.2 algorithm (the paper's contribution).
  kSkewed,     ///< Clustered repeats (Figure 2b) — same bandwidth split.
  kRandom,     ///< i.i.d. slots by bandwidth share (Section 2.1's
               ///< randomized allocation).
};

/// \brief All knobs of one simulated client/server configuration.
///
/// Defaults reproduce the paper's base setting (Table 4): 5000-page server
/// database, client accessing the hottest 1000 pages with Zipf(0.95) over
/// 50-page regions, ThinkTime 2, disk configuration D5 = <500,2000,2500>.
struct SimParams {
  // --- Server (Table 3) ---
  /// Pages per disk, hottest-first; their sum is ServerDBSize.
  std::vector<uint64_t> disk_sizes = {500, 2000, 2500};

  /// Broadcast shape parameter; rel_freq(i) = (N - i) * delta + 1.
  /// Ignored when `rel_freqs` is non-empty.
  uint64_t delta = 2;

  /// Explicit relative frequencies (overrides `delta` when non-empty).
  std::vector<uint64_t> rel_freqs;

  /// Program construction (multi-disk unless studying alternatives).
  ProgramKind program_kind = ProgramKind::kMultiDisk;

  /// Which `ScheduleOptimizer` builds the multi-disk schedule ("delta",
  /// "ksy", "rbo"). The default reproduces the paper's Δ-rule exactly, so
  /// the config identity string mentions the optimizer only when it is
  /// not "delta" — every pre-frontier config string (and golden baseline)
  /// is untouched.
  std::string optimizer = "delta";

  /// Pages shifted from the fastest disk to the end of the slowest
  /// (set to cache_size when the server knows the client caches).
  uint64_t offset = 0;

  /// Percent of pages whose mapping is swapped to a random disk [0, 100].
  double noise_percent = 0.0;

  /// Which pages' mappings the noise coin applies to.
  NoiseScope noise_scope = NoiseScope::kAccessRange;

  /// How noise-swap destinations are drawn (paper: uniform over disks).
  NoiseModel::Destination noise_destination =
      NoiseModel::Destination::kUniformDisk;

  // --- Client (Table 2) ---
  /// Pages (hottest prefix of the database) the client ever requests.
  uint64_t access_range = 1000;

  /// Zipf skew over regions.
  double theta = 0.95;

  /// Pages per Zipf region.
  uint64_t region_size = 50;

  /// Client cache slots; 1 == the paper's "no caching" baseline.
  uint64_t cache_size = 500;

  /// Mean pause between requests, in broadcast units.
  double think_time = 2.0;

  /// Think-time distribution (the paper uses fixed).
  ThinkTimeKind think_kind = ThinkTimeKind::kFixed;

  /// Whether the client knows the broadcast schedule (affects only the
  /// tuning-time metric; see ClientRunConfig::knows_schedule).
  bool knows_schedule = false;

  /// Replacement policy under study.
  PolicyKind policy = PolicyKind::kLru;

  /// Policy-specific options (LIX alpha, LRU-k depth, 2Q fractions).
  PolicyOptions policy_options;

  // --- Run control ---
  /// Requests recorded after cache warm-up.
  uint64_t measured_requests = 100000;

  /// Warm-up request cap.
  uint64_t max_warmup_requests = 2000000;

  /// Master seed; sub-streams are derived for requests, noise, and the
  /// random program, so e.g. changing `noise_percent` does not change the
  /// request sequence.
  uint64_t seed = 42;

  /// Inert: nothing reads it. Kept only so bench/bcastbench/layers.cc,
  /// which copies it into MultiClientParams, still compiles.
  int des_queue = 0;

  // --- Channel faults (src/fault) ---
  /// Unreliable-channel knobs; inactive by default, in which case no
  /// fault machinery is built, no random draw is added, and the config
  /// identity string is unchanged.
  fault::FaultParams fault;

  // --- Hybrid push–pull (src/pull) ---
  /// Backchannel/pull knobs; inactive by default, in which case no pull
  /// machinery is built, no event or random draw is added, and the
  /// config identity string is unchanged. Active pull requires the
  /// multi-disk program (pull slots interleave into its minor cycles).
  pull::PullParams pull;

  // --- Adaptive control plane (src/adapt) ---
  /// Epoch-controller knobs; inactive by default, in which case no
  /// controller is built, no event is scheduled, and the config identity
  /// string is unchanged. Active adaptation requires the multi-disk
  /// program and something to adapt: an active fault model (frequency
  /// repair) or active pull (slot control), or both.
  adapt::AdaptParams adapt;

  /// Total pages the server broadcasts (sum of disk_sizes).
  uint64_t ServerDbSize() const;

  /// Structural validation of the whole parameter set: the rules of
  /// `PopulationFromSimParams(*this, 1).Validate()`.
  Status Validate() const;

  /// One-line summary for logs/tables.
  std::string ToString() const;
};

}  // namespace bcast

#endif  // BCAST_CORE_PARAMS_H_
