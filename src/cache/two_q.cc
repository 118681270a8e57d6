#include "cache/two_q.h"

#include <algorithm>

#include "common/logging.h"

namespace bcast {

TwoQCache::TwoQCache(uint64_t capacity, PageId num_pages,
                     const PageCatalog* catalog, TwoQOptions options)
    : CachePolicy(capacity, num_pages, catalog),
      options_(options),
      a1in_(num_pages, capacity),
      am_(num_pages, capacity),
      in_a1out_(num_pages, false) {
  BCAST_CHECK_GT(options.kin_fraction, 0.0);
  BCAST_CHECK_LE(options.kin_fraction, 1.0);
  BCAST_CHECK_GE(options.kout_fraction, 0.0);
  kin_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(options.kin_fraction *
                               static_cast<double>(capacity)));
  kout_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(options.kout_fraction *
                               static_cast<double>(capacity)));
}

bool TwoQCache::Contains(PageId page) const {
  return a1in_.Contains(page) || am_.Contains(page);
}

bool TwoQCache::Lookup(PageId page, double /*now*/) {
  if (am_.Contains(page)) {
    am_.Touch(page);
    return true;
  }
  // 2Q leaves A1in pages where they are on a hit: a second access soon
  // after the first proves nothing about long-term heat (correlated
  // references). The promotion test happens via A1out instead.
  return a1in_.Contains(page);
}

void TwoQCache::PushGhost(PageId page) {
  a1out_.push_front(page);
  in_a1out_[page] = true;
  while (a1out_.size() > kout_) {
    in_a1out_[a1out_.back()] = false;
    a1out_.pop_back();
  }
}

void TwoQCache::ReclaimSlot() {
  // Standard rule: overflowing A1in pays first; otherwise Am's LRU page.
  PageId a1_victim = a1in_.size() >= kin_ ? a1in_.Back() : kEmptySlot;
  PageId am_victim = am_.Back();
  if (a1_victim == kEmptySlot && am_victim == kEmptySlot) {
    // Capacity smaller than kin and everything sits in A1in.
    a1_victim = a1in_.Back();
  }

  if (options_.use_frequency && a1_victim != kEmptySlot &&
      am_victim != kEmptySlot) {
    // 2QX: between the two structural candidates, evict the one that is
    // cheaper to re-acquire (higher broadcast frequency).
    if (catalog().Frequency(a1_victim) >= catalog().Frequency(am_victim)) {
      a1in_.Remove(a1_victim);
      PushGhost(a1_victim);
      NotifyEviction(a1_victim, 0.0);
    } else {
      am_.Remove(am_victim);
      NotifyEviction(am_victim, 0.0);
    }
    return;
  }

  if (a1_victim != kEmptySlot) {
    a1in_.Remove(a1_victim);
    PushGhost(a1_victim);
    NotifyEviction(a1_victim, 0.0);
  } else {
    BCAST_CHECK_NE(am_victim, kEmptySlot);
    am_.Remove(am_victim);
    NotifyEviction(am_victim, 0.0);
  }
}

void TwoQCache::Insert(PageId page, double /*now*/) {
  BCAST_CHECK(!Contains(page)) << "inserting a cached page";
  if (size() == capacity()) ReclaimSlot();
  if (in_a1out_[page]) {
    // Re-reference within the ghost window: the page is genuinely hot.
    in_a1out_[page] = false;
    for (auto it = a1out_.begin(); it != a1out_.end(); ++it) {
      if (*it == page) {
        a1out_.erase(it);
        break;
      }
    }
    am_.PushFront(page);
  } else {
    a1in_.PushFront(page);
  }
}

}  // namespace bcast
