#include "des/event_queue.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace bcast::des {
namespace {

// Compaction trigger: purge the heap once stale refs both exceed this
// floor and outnumber the live events. The floor keeps tiny queues from
// compacting on every cancel; the ratio bounds memory at O(live).
constexpr uint64_t kCompactFloor = 64;

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kGeneric:
      return "generic";
    case EventKind::kProcessStart:
      return "process_start";
    case EventKind::kDelay:
      return "delay";
    case EventKind::kSignal:
      return "signal";
    case EventKind::kSlot:
      return "slot";
    case EventKind::kPull:
      return "pull";
    case EventKind::kController:
      return "controller";
  }
  return "unknown";
}

uint32_t EventQueue::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  BCAST_CHECK_LT(slab_.size(), uint64_t{1} << 32)
      << "EventQueue slot space exhausted";
  slab_.push_back(Slot{});
  slab_.back().gen = 1;
  return static_cast<uint32_t>(slab_.size() - 1);
}

void EventQueue::FreeSlot(uint32_t slot) {
  Slot& s = slab_[slot];
  ++s.gen;
  if (s.gen == 0) ++s.gen;  // generation 0 is reserved (never a valid id)
  s.fn = nullptr;           // release captured state immediately
  free_slots_.push_back(slot);
}

EventQueue::EventId EventQueue::Push(double time, std::function<void()> fn,
                                     EventKind kind) {
  BCAST_CHECK(std::isfinite(time))
      << "event time must be finite, got " << time;
  BCAST_CHECK_LT(next_seq_, kMaxSeq) << "EventQueue sequence exhausted";
  const uint32_t slot = AllocSlot();
  Slot& s = slab_[slot];
  s.fn = std::move(fn);
  const uint64_t seq_and_kind =
      (next_seq_++ << kKindBits) | static_cast<uint64_t>(kind);
  heap_.push_back(EventRef{time, seq_and_kind, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), LaterRef{});
  ++live_;
  return MakeId(slot, s.gen);
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (gen == 0 || slot >= slab_.size() || slab_[slot].gen != gen) {
    return false;  // unknown, fired, or cancelled
  }
  FreeSlot(slot);
  --live_;
  ++stale_;
  MaybeCompact();
  return true;
}

void EventQueue::MaybeCompact() {
  if (stale_ <= kCompactFloor || stale_ <= live_) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const EventRef& ref) {
                               return !IsLive(ref);
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), LaterRef{});
  stale_ = 0;
}

void EventQueue::PopFront() {
  std::pop_heap(heap_.begin(), heap_.end(), LaterRef{});
  heap_.pop_back();
}

void EventQueue::SkipStale() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    PopFront();
    --stale_;
  }
}

double EventQueue::PeekTime() {
  BCAST_CHECK(live_ > 0) << "PeekTime on empty EventQueue";
  SkipStale();
  BCAST_CHECK(!heap_.empty()) << "heap lost a live event";
  return heap_.front().time;
}

std::function<void()> EventQueue::Pop(double* time, EventKind* kind) {
  BCAST_CHECK(live_ > 0) << "Pop on empty EventQueue";
  SkipStale();
  BCAST_CHECK(!heap_.empty()) << "heap lost a live event";
  const EventRef& ref = heap_.front();
  *time = ref.time;
  if (kind != nullptr) {
    *kind = static_cast<EventKind>(ref.seq_and_kind & 0xff);
  }
  std::function<void()> fn = std::move(slab_[ref.slot].fn);
  FreeSlot(ref.slot);
  PopFront();
  --live_;
  return fn;
}

void EventQueue::Clear() {
  heap_.clear();
  // Rebuild the free list deterministically (slot 0 first out).
  free_slots_.clear();
  for (size_t i = slab_.size(); i-- > 0;) {
    Slot& s = slab_[i];
    ++s.gen;
    if (s.gen == 0) ++s.gen;
    s.fn = nullptr;
    free_slots_.push_back(static_cast<uint32_t>(i));
  }
  live_ = 0;
  stale_ = 0;
}

}  // namespace bcast::des
