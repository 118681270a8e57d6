/// \file chaos.h
/// \brief Seeded chaos scenarios over the whole fault surface.
///
/// A chaos scenario is a randomized simulation configuration — geometry,
/// workload, policy — composed with a randomized schedule of every fault
/// axis the repo models: loss, corruption, doze, crash–restart, server
/// stalls, slot jitter, and schedule-version bumps — and, on the
/// `optimizer` axis, a schedule optimizer drawn per seed, so every fault
/// composition also runs against ksy and bit-reversal programs, not just
/// the paper's Δ-rule. Each scenario is a
/// pure function of its `chaos_seed` and axis mask, runs to completion
/// under a time horizon, and is judged against *global* invariants that
/// must hold no matter how the axes compose: the event queue drains (no
/// hang), every issued request is serviced with the books balanced, and
/// the response-time accounting matches the request count. Any violation
/// reproduces from one integer (`--chaos_seed N`) and shrinks by
/// disabling axes one at a time (`MinimizeAxes`).
///
/// The harness exists to catch *composition* bugs — each axis is unit-
/// and golden-tested alone; chaos is where crash-during-stall-during-
/// epoch-switch gets its only systematic coverage.

#ifndef BCAST_CHAOS_CHAOS_H_
#define BCAST_CHAOS_CHAOS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/params.h"
#include "obs/run_report.h"
#include "obs/timeline.h"

namespace bcast::chaos {

/// \brief Which fault axes a scenario may exercise. The generator draws
/// every axis's parameters unconditionally and applies only the enabled
/// ones, so disabling one axis never reshuffles another's values — the
/// property the shrinker depends on.
struct ChaosAxes {
  bool loss = true;     ///< channel loss (i.i.d. or bursty)
  bool corrupt = true;  ///< detected payload corruption
  bool doze = true;     ///< client radio duty cycle
  bool crash = true;    ///< client crash–restart (warm or cold)
  bool stall = true;    ///< server transmission stalls
  bool jitter = true;   ///< slot-boundary delivery jitter
  bool version = true;  ///< schedule-version bumps mid-run
  bool pull = true;     ///< hybrid pull machinery (books under crashes)
  bool pop = true;      ///< sharded population engine (clients > 1)
  bool optimizer = true;  ///< schedule optimizer drawn per seed (delta|ksy|rbo)

  /// Every axis on (the default fleet configuration).
  static ChaosAxes All() { return ChaosAxes{}; }

  /// Every axis off (the scenario collapses to a fault-free run).
  static ChaosAxes None();

  /// Comma-separated names of the enabled axes ("none" when all off).
  std::string ToString() const;

  /// True when no axis is enabled.
  bool Empty() const;
};

/// \brief One fully-specified scenario: deterministic in (seed, axes).
struct ChaosScenario {
  uint64_t chaos_seed = 0;
  ChaosAxes axes;
  SimParams params;

  /// Population shape (the `pop` axis): with `clients > 1` the scenario
  /// runs through the sharded population engine at this shard count
  /// instead of the single-client simulator. Both stay 1 when the axis
  /// is disabled.
  uint64_t clients = 1;
  uint64_t shards = 1;

  /// Simulated-time budget; a run that cannot finish by here violates
  /// the no-hang invariant.
  double horizon = 0.0;
};

/// \brief Derives the scenario for \p chaos_seed with \p axes applied.
/// Same seed + same axes = byte-identical SimParams, always.
ChaosScenario GenerateScenario(uint64_t chaos_seed, const ChaosAxes& axes);

/// \brief One violated invariant: its stable name and the observed
/// values that broke it.
struct ChaosViolation {
  std::string invariant;
  std::string detail;
};

/// \brief Verdict for one executed scenario.
struct ChaosOutcome {
  /// Empty iff every invariant held.
  std::vector<ChaosViolation> violations;

  /// The run's report; meaningful only when `completed`.
  obs::RunReport report;

  /// Whether the simulation ran to completion (no-hang, no error).
  bool completed = false;

  bool ok() const { return violations.empty(); }
};

/// \brief Post-run, pre-check report transform. Production passes
/// nothing; the mutation test injects an accounting bug here to prove
/// the invariants can actually catch one.
using ReportMutator = std::function<void(obs::RunReport*)>;

/// \brief Runs \p scenario to completion under its horizon and checks
/// every global invariant against the resulting report. \p timeline,
/// when given, is attached to the run (artifact re-runs of failing
/// seeds; population scenarios emit per-shard tracks).
ChaosOutcome RunScenario(const ChaosScenario& scenario,
                         const ReportMutator& mutate = nullptr,
                         obs::TimelineWriter* timeline = nullptr);

/// \brief The shard-count bit-identity check for population scenarios:
/// the scenario re-run single-sharded (K = 1, engine forced) must
/// produce a byte-identical report to the drawn shard count — the
/// engine's K-invariance contract exercised under full fault
/// composition. Returns std::nullopt for single-client scenarios.
std::optional<ChaosViolation> CheckShardIdentity(
    const ChaosScenario& scenario);

/// \brief Greedy scenario shrinking: starting from \p axes (which must
/// reproduce a violation for \p chaos_seed), repeatedly disable any
/// single axis whose removal keeps the scenario failing, until no more
/// can be removed. Returns the minimal failing axis set.
ChaosAxes MinimizeAxes(uint64_t chaos_seed, const ChaosAxes& axes);

/// \brief The one-line reproduction command for a failing seed.
std::string ReproCommand(uint64_t chaos_seed);

}  // namespace bcast::chaos

#endif  // BCAST_CHAOS_CHAOS_H_
