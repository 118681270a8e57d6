/// \file engine.h
/// \brief The sharded population engine: N clients over K shards, run by
/// the calling thread plus K-1 workers.
///
/// The engine partitions the population into contiguous shards, each a
/// private discrete-event simulation (see shard.h), and couples them to
/// one coordinator-owned *server simulation* holding the subsystems the
/// paper centralizes: the pull server (uplink admission, request queue,
/// service decisions) and the adaptive controller. Shards and server
/// synchronize only at *round barriers* — the coupling times where
/// information can cross the air or the backchannel:
///
///   - every pull-slot start (a service decision may transmit),
///   - every controller epoch boundary (the program may switch),
///   - every stats-stream sample point.
///
/// A round: (1) shards run `[t, B]` in parallel, each appending its
/// uplink submits to a plain list; (2) at the barrier the coordinator
/// takes every shard's list, sorts the submits by (time, client id),
/// and replays them against the real pull server — admission, the
/// per-client uplink loss draw, enqueue — in that canonical order;
/// (3) the server simulation runs to `B`, firing decisions/epoch ticks,
/// and its pull transmissions (as delivery *mirrors*) and program
/// switches go into the one `Round` every shard reads next; (4) repeat.
/// Configurations with no pull, no adaptation, and no stats stream have
/// no coupling at all: the engine runs one round to completion, shards
/// fully parallel.
///
/// This is the only population runner: `bcastsim --mode=population`,
/// the chaos harness and the benches all run it, on `--shards` shards.
/// The calling thread is the coordinator and also runs shard 0; shards
/// 1..K-1 run on K-1 worker threads, so K=1 starts no thread and a
/// round costs no thread handshake.
///
/// Determinism contract:
///   - Results are **shard-count invariant**: any K produces the same
///     `SimResult` (and report) bit for bit. Per-client state is
///     keyed by client id, merges fold in ascending client order, and
///     the replay order above does not mention shards.
///   - On *uncoupled* configurations (no pull, no adaptation; faults
///     allowed) the engine reproduces the goldens recorded by the deleted
///     single-simulation runner (`tests/baselines/legacy_population/`)
///     in every field but the four that runner left at 0 (warm-up
///     requests and program geometry): the same client worlds run the
///     same events, and the merged event count reconstructs the
///     single-simulation count exactly.
///   - On coupled configurations barrier replay resolves
///     equal-timestamp races by (time, client id), where one simulation
///     holding every client would resolve them by event sequence number
///     (e.g. a timeout re-request landing exactly on a decision slot).
///   - Stats-stream samples are taken at barriers by the coordinator
///     and add **no** DES events, so `events_dispatched` of a
///     stats-observed run matches the unobserved run.

#ifndef BCAST_POP_ENGINE_H_
#define BCAST_POP_ENGINE_H_

#include "core/multi_client.h"
#include "core/simulator.h"
#include "obs/run_report.h"
#include "pop/pop_params.h"

namespace bcast::pop {

/// \brief Runs \p params.clients (already expanded to the population,
/// with any class profiles applied to the specs) across
/// \p pop.EffectiveShards() shards: the calling thread runs shard 0 and
/// K-1 worker threads run the rest. Deterministic in
/// `params.seed`; invariant in the shard count.
Result<SimResult> RunPopulationSimulation(
    const MultiClientParams& params, const PopParams& pop,
    const SimObservers& observers);

/// \brief Convenience overload without observers.
Result<SimResult> RunPopulationSimulation(
    const MultiClientParams& params, const PopParams& pop);

/// \brief Appends population-engine extras to a population report:
/// engine identity (`pop_clients`, `pop_shards`),
/// population fairness (`pop_max_flow_time` — the largest total measured
/// wait any client accumulated; `pop_stretch_max` — worst per-class mean
/// response time over the population mean; `pop_worst_class_p99`), and
/// one block per receiver class (count, mean/p50/p90/p99/max response
/// time, stretch).
void AppendPopulationExtras(const PopParams& pop,
                            const SimResult& result,
                            obs::RunReport* report);

}  // namespace bcast::pop

#endif  // BCAST_POP_ENGINE_H_
