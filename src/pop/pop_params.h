/// \file pop_params.h
/// \brief Parameters of the sharded population engine.
///
/// The engine simulates N clients partitioned across K shards, run by
/// the calling thread plus K-1 worker threads. Results are deterministic in the run seed and invariant in
/// K: the shard count is an execution detail, like the DES queue
/// backend, never a semantic knob. Receiver heterogeneity is expressed
/// as *class profiles* — named fractions of the population whose
/// fault knobs scale relative to the shared baseline ("near" receivers
/// hear well, "far" ones lose more and doze longer) — mapped onto
/// clients deterministically by client id.
///
/// This header is included by `core/sim_config.h` and must stay free of
/// core/ includes.

#ifndef BCAST_POP_POP_PARAMS_H_
#define BCAST_POP_POP_PARAMS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace bcast::pop {

/// \brief One receiver class: a fraction of the population with scaled
/// fault knobs (see ClientSpec::loss_scale / doze_scale).
struct ClassProfile {
  std::string name = "default";
  double fraction = 1.0;  ///< share of the population, in (0, 1]
  double loss_scale = 1.0;
  double doze_scale = 1.0;
};

/// \brief Population-engine knobs, carried next to the simulation
/// parameters in `SimConfig`.
struct PopParams {
  /// Population size.
  uint64_t clients = 1;

  /// Shards: the calling thread runs one, K-1 worker threads run the
  /// rest. Results are invariant in the shard count,
  /// so the choice is observable only in wall-clock time.
  uint64_t shards = 1;

  /// Receiver classes; empty means one homogeneous default class.
  /// Fractions must sum to at most 1 (any remainder joins the last
  /// class).
  std::vector<ClassProfile> classes;

  /// Shards actually spun up: `shards`, at least 1 and never more than
  /// `clients`.
  uint64_t EffectiveShards() const {
    return std::max<uint64_t>(1, std::min(shards, clients));
  }

  Status Validate() const;
};

/// Parses a class-profile list: "name:fraction:loss_scale:doze_scale"
/// entries separated by commas, e.g. "near:0.6:0.5:0,far:0.4:2:3".
/// Trailing fields may be omitted (":" defaults apply).
Result<std::vector<ClassProfile>> ParseClassProfiles(
    const std::string& spec);

/// The class of client \p c in a population of \p clients under
/// \p classes: contiguous id ranges sized by the fractions, remainder
/// to the last class; 0 when \p classes is empty.
uint32_t ClassOfClient(uint64_t c, uint64_t clients,
                       const std::vector<ClassProfile>& classes);

/// First client id owned by shard \p s of \p shards over \p clients
/// (contiguous blocks, remainder spread over the leading shards).
/// Shard s owns [ShardBegin(s), ShardBegin(s + 1)).
uint64_t ShardBegin(uint64_t s, uint64_t shards, uint64_t clients);

}  // namespace bcast::pop

#endif  // BCAST_POP_POP_PARAMS_H_
