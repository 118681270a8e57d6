#include "cache/lru_k.h"

#include <algorithm>

#include "common/logging.h"

namespace bcast {
namespace {
constexpr double kMinGap = 1e-9;
}  // namespace

LruKCache::LruKCache(uint64_t capacity, PageId num_pages,
                     const PageCatalog* catalog, LruKOptions options)
    : CachePolicy(capacity, num_pages, catalog),
      options_(options),
      history_(num_pages),
      cached_(num_pages, false) {
  BCAST_CHECK_GE(options.k, 1u);
  const uint64_t num_disks = std::max<uint64_t>(catalog->NumDisks(), 1);
  chains_.resize(num_disks);
}

std::string LruKCache::name() const {
  std::string n = "LRU-" + std::to_string(options_.k);
  if (options_.use_frequency) n += "X";
  return n;
}

void LruKCache::Clear() {
  for (auto& chain : chains_) {
    for (const auto& [time, page] : chain) cached_[page] = false;
    chain.clear();
  }
  // Access histories survive eviction by design, but not a crash.
  for (History& h : history_) h = History{};
  size_ = 0;
}

double LruKCache::OldestTracked(PageId page) const {
  const History& h = history_[page];
  BCAST_CHECK_GT(h.count, 0u);
  if (h.count < options_.k) {
    // Ring not yet full: the oldest tracked access sits at position 0.
    return h.times[0];
  }
  return h.times[h.next];  // next overwrite target == oldest entry
}

double LruKCache::EvaluateValue(PageId page, double now) const {
  BCAST_CHECK(cached_[page]);
  const History& h = history_[page];
  const double span = std::max(now - OldestTracked(page), kMinGap);
  double value = static_cast<double>(h.count) / span;
  if (options_.use_frequency) {
    const double freq = catalog().Frequency(page);
    BCAST_CHECK_GT(freq, 0.0);
    value /= freq;
  }
  return value;
}

void LruKCache::ChainInsert(PageId page) {
  chains_[catalog().DiskOf(page)].emplace(OldestTracked(page), page);
}

void LruKCache::ChainErase(PageId page) {
  const size_t erased =
      chains_[catalog().DiskOf(page)].erase({OldestTracked(page), page});
  BCAST_CHECK_EQ(erased, 1u);
}

bool LruKCache::Lookup(PageId page, double now) {
  if (!cached_[page]) return false;
  ChainErase(page);
  History& h = history_[page];
  if (h.count < options_.k) {
    h.times.push_back(now);
    ++h.count;
    h.next = h.count % options_.k;
  } else {
    h.times[h.next] = now;
    h.next = (h.next + 1) % options_.k;
  }
  ChainInsert(page);
  return true;
}

void LruKCache::Insert(PageId page, double now) {
  BCAST_CHECK(!cached_[page]) << "inserting a cached page";
  if (size_ == capacity()) {
    // Only the oldest-k-distance page of each chain competes; smallest
    // rate (optionally normalized by frequency) is ejected.
    PageId victim = kEmptySlot;
    double victim_value = 0.0;
    for (const auto& chain : chains_) {
      if (chain.empty()) continue;
      const PageId bottom = chain.begin()->second;
      const double value = EvaluateValue(bottom, now);
      if (victim == kEmptySlot || value < victim_value) {
        victim = bottom;
        victim_value = value;
      }
    }
    BCAST_CHECK_NE(victim, kEmptySlot);
    ChainErase(victim);
    cached_[victim] = false;
    --size_;
    NotifyEviction(victim, victim_value);
  }
  History& h = history_[page];
  h.times.clear();
  h.times.push_back(now);
  h.count = 1;
  h.next = 1 % options_.k;
  cached_[page] = true;
  ChainInsert(page);
  ++size_;
}

}  // namespace bcast
