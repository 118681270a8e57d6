#include "cache/clock.h"

#include "common/logging.h"

namespace bcast {

ClockCache::ClockCache(uint64_t capacity, PageId num_pages,
                       const PageCatalog* catalog)
    : CachePolicy(capacity, num_pages, catalog),
      slots_(capacity),
      slot_of_(num_pages, -1) {}

bool ClockCache::Lookup(PageId page, double /*now*/) {
  const int64_t slot = slot_of_[page];
  if (slot < 0) return false;
  slots_[static_cast<uint64_t>(slot)].referenced = true;
  return true;
}

void ClockCache::Insert(PageId page, double /*now*/) {
  BCAST_CHECK_LT(slot_of_[page], 0) << "inserting a cached page";
  if (used_ < capacity()) {
    // Fill empty slots in order before the hand starts sweeping.
    for (uint64_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].page == kEmptySlot) {
        slots_[i] = Slot{page, true};
        slot_of_[page] = static_cast<int64_t>(i);
        ++used_;
        return;
      }
    }
    BCAST_LOG(kFatal) << "CLOCK bookkeeping out of sync";
  }
  // Sweep: give referenced pages a second chance.
  for (;;) {
    Slot& s = slots_[hand_];
    if (s.referenced) {
      s.referenced = false;
      hand_ = (hand_ + 1) % slots_.size();
      continue;
    }
    const PageId victim = s.page;
    slot_of_[victim] = -1;
    s.page = page;
    s.referenced = true;
    slot_of_[page] = static_cast<int64_t>(hand_);
    hand_ = (hand_ + 1) % slots_.size();
    NotifyEviction(victim, 0.0);
    return;
  }
}

}  // namespace bcast
