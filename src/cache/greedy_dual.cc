#include "cache/greedy_dual.h"

#include "common/logging.h"

namespace bcast {

GreedyDualCache::GreedyDualCache(uint64_t capacity, PageId num_pages,
                                 const PageCatalog* catalog)
    : GreedyDualCache(capacity, num_pages, catalog,
                      std::make_unique<BroadcastDelayCost>(catalog)) {}

GreedyDualCache::GreedyDualCache(uint64_t capacity, PageId num_pages,
                                 const PageCatalog* catalog,
                                 std::unique_ptr<CostEstimator> estimator)
    : CachePolicy(capacity, num_pages, catalog),
      estimator_(std::move(estimator)),
      credit_(num_pages, 0.0),
      cached_(num_pages, false) {
  BCAST_CHECK(estimator_ != nullptr);
}

double GreedyDualCache::Cost(PageId page) const {
  // p = 1: GreedyDual's credit is the bare refetch cost.
  return estimator_->Value(page, 1.0);
}

double GreedyDualCache::CreditOf(PageId page) const {
  BCAST_CHECK(cached_[page]);
  return credit_[page];
}

void GreedyDualCache::Refresh(PageId page) {
  const double fresh = inflation_ + Cost(page);
  if (cached_[page]) {
    ordered_.erase({credit_[page], page});
  }
  credit_[page] = fresh;
  cached_[page] = true;
  ordered_.insert({fresh, page});
}

bool GreedyDualCache::Lookup(PageId page, double /*now*/) {
  if (!cached_[page]) return false;
  Refresh(page);
  return true;
}

void GreedyDualCache::Insert(PageId page, double /*now*/) {
  BCAST_CHECK(!cached_[page]) << "inserting a cached page";
  if (ordered_.size() == capacity()) {
    const auto victim = ordered_.begin();
    // The victim's credit becomes the new inflation level: everything
    // still cached is now worth "credit - L" in effective terms.
    inflation_ = victim->first;
    const PageId victim_page = victim->second;
    cached_[victim_page] = false;
    ordered_.erase(victim);
    NotifyEviction(victim_page, inflation_);
  }
  Refresh(page);
}

}  // namespace bcast
