/// \file prefetch.h
/// \brief Opportunistic prefetching from the broadcast (extension).
///
/// Section 7 ("We are currently investigating how prefetching could be
/// introduced into the present scheme. The client cache manager would use
/// the broadcast as a way to opportunistically increase the temperature of
/// its cache.") This module implements the `pt` tag-team heuristic the
/// authors later published: the client listens to *every* page that goes
/// by and values a page as
///
///     pt(page, now) = P(page) * (time until page is next broadcast)
///
/// — the expected cost its absence will cause. A page arriving on the air
/// has just started the longest possible wait until its next broadcast, so
/// its pt is maximal; it displaces the cached page with the *lowest*
/// current pt if it beats it. Demand misses still wait on the broadcast as
/// usual.
///
/// Monitoring every slot makes this client O(simulated time) rather than
/// O(requests); run it at reduced scale (see bench/ablation_prefetch).

#ifndef BCAST_CLIENT_PREFETCH_H_
#define BCAST_CLIENT_PREFETCH_H_

#include <cstdint>
#include <vector>

#include "broadcast/channel.h"
#include "client/access_generator.h"
#include "client/mapping.h"
#include "core/metrics.h"
#include "des/simulation.h"

namespace bcast {

/// \brief Run-control knobs for `PrefetchClient`.
struct PrefetchClientConfig {
  /// Requests recorded after warm-up.
  uint64_t measured_requests = 5000;

  /// Warm-up request cap.
  uint64_t max_warmup_requests = 100000;
};

/// \brief A client that both demands pages and prefetches from the air.
///
/// Spawn *both* coroutines: `sim->Spawn(c.RunRequests());`
/// `sim->Spawn(c.RunMonitor());`. The monitor stops itself once the
/// request loop finishes.
class PrefetchClient {
 public:
  PrefetchClient(des::Simulation* sim, BroadcastChannel* channel,
                 AccessGenerator* gen, const Mapping* mapping,
                 uint64_t capacity, PrefetchClientConfig config);

  /// The demand request loop (think → request → serve).
  des::Process RunRequests();

  /// The per-slot broadcast monitor performing tag-team replacement.
  des::Process RunMonitor();

  /// Measured-phase metrics.
  const ClientMetrics& metrics() const { return metrics_; }

  /// Pages currently cached.
  uint64_t cache_size() const { return resident_.size(); }

  /// True iff logical \p page is cached (for tests).
  bool Contains(PageId page) const { return cached_[page]; }

  /// The pt value of logical \p page at time \p now.
  double PtValue(PageId page, double now) const;

 private:
  /// Inserts \p page, evicting the minimum-pt resident if full and beaten.
  /// Returns true if the page was admitted.
  bool TagTeamAdmit(PageId page, double now);

  des::Simulation* sim_;
  BroadcastChannel* channel_;
  AccessGenerator* gen_;
  const Mapping* mapping_;
  uint64_t capacity_;
  PrefetchClientConfig config_;
  ClientMetrics metrics_;
  std::vector<bool> cached_;       // by logical page
  std::vector<PageId> resident_;   // logical pages in cache
  bool requests_done_ = false;
};

}  // namespace bcast

#endif  // BCAST_CLIENT_PREFETCH_H_
