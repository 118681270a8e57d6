/// \file cache_policy.h
/// \brief The client cache abstraction shared by all replacement policies.
///
/// In a push-based system the cache's job changes (paper Section 3): it
/// should hold pages whose *local* probability of access is high relative
/// to their broadcast frequency, not merely the hottest pages. Policies
/// therefore get access to a `PageCatalog` describing, per logical page,
/// the client's access probability (known exactly in the simulation, used
/// by the idealized P/PIX policies) and the broadcast frequency and disk of
/// the physical page it maps to (known exactly at any client that has read
/// the program structure off the air; used by PIX/LIX).
///
/// All policies operate on *logical* page ids — the client's own numbering
/// — since that is what the application requests.

#ifndef BCAST_CACHE_CACHE_POLICY_H_
#define BCAST_CACHE_CACHE_POLICY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "broadcast/types.h"

namespace bcast {

/// \brief Per-page knowledge available to replacement policies.
class PageCatalog {
 public:
  virtual ~PageCatalog() = default;

  /// The client's probability of requesting logical page \p page next.
  /// Only the idealized policies (P, PIX) may use this.
  virtual double Probability(PageId page) const = 0;

  /// Normalized broadcast frequency (arrivals per broadcast unit) of the
  /// physical page that \p page maps to — the "X" in PIX.
  virtual double Frequency(PageId page) const = 0;

  /// Broadcast disk (0 = fastest) of the physical page \p page maps to.
  virtual DiskIndex DiskOf(PageId page) const = 0;

  /// Number of disks in the broadcast program.
  virtual uint64_t NumDisks() const = 0;
};

/// \brief Interface of a fixed-capacity client page cache.
///
/// Usage per client request at simulated time `now`:
///   1. `Lookup(page, now)` — true on a hit (and the policy updates its
///      recency/estimate state);
///   2. on a miss, fetch the page from the broadcast, then call
///      `Insert(page, now)` — the policy decides admission and eviction,
///      never exceeding `capacity()`.
class CachePolicy {
 public:
  /// \param capacity  Cache slots; must be >= 1 (the paper's "no caching"
  ///                  baseline is capacity 1).
  /// \param num_pages Logical page-id space is [0, num_pages).
  /// \param catalog   Page knowledge; must outlive the policy. May be used
  ///                  or ignored depending on the policy.
  CachePolicy(uint64_t capacity, PageId num_pages, const PageCatalog* catalog);
  virtual ~CachePolicy() = default;

  CachePolicy(const CachePolicy&) = delete;
  CachePolicy& operator=(const CachePolicy&) = delete;

  /// Probes for \p page at simulated time \p now; updates policy state on
  /// a hit. Returns whether the page was cached.
  virtual bool Lookup(PageId page, double now) = 0;

  /// Offers \p page (just fetched) for admission at time \p now. The
  /// policy may decline (cost-based policies do when the newcomer is the
  /// least valuable candidate). Must not be called for a cached page.
  virtual void Insert(PageId page, double now) = 0;

  /// Read-only membership test (no state update) for tests and metrics.
  virtual bool Contains(PageId page) const = 0;

  /// Pages currently cached.
  virtual uint64_t size() const = 0;

  /// Human-readable policy name ("LRU", "PIX", ...).
  virtual std::string name() const = 0;

  /// Drops every cached page and resets all volatile policy state
  /// (recency orders, reference histories, ghost lists, credit/inflation
  /// accounting). Construction-time knowledge — capacity, catalog, static
  /// value tables — survives. Models a cold restart after a client crash
  /// (src/fault/process_faults): the next Lookup of any page misses.
  virtual void Clear() = 0;

  /// Maximum pages the cache can hold.
  uint64_t capacity() const { return capacity_; }

  /// Logical page-id space.
  PageId num_pages() const { return num_pages_; }

  /// \brief Observer of evictions: called with the victim page and the
  /// policy's eviction score for it (the lix value for LIX, the static
  /// value for P/PIX, the credit for GreedyDual, the ranking value for
  /// LRU-K, 0 for score-free policies like LRU, CLOCK and 2Q). Every
  /// policy reports every eviction.
  ///
  /// Installed only when tracing is on; with no callback set the eviction
  /// path pays a single predictable branch.
  using EvictionCallback = std::function<void(PageId victim, double score)>;
  void SetEvictionCallback(EvictionCallback callback) {
    on_evict_ = std::move(callback);
  }

 protected:
  const PageCatalog& catalog() const { return *catalog_; }

  /// Policies call this when they remove a resident page to admit another
  /// (not for declined admissions or explicit invalidations).
  void NotifyEviction(PageId victim, double score) {
    if (on_evict_) on_evict_(victim, score);
  }

 private:
  uint64_t capacity_;
  PageId num_pages_;
  const PageCatalog* catalog_;
  EvictionCallback on_evict_;
};

}  // namespace bcast

#endif  // BCAST_CACHE_CACHE_POLICY_H_
