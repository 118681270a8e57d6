#include "des/event_queue.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace bcast::des {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kGeneric:
      return "generic";
    case EventKind::kProcessStart:
      return "process_start";
    case EventKind::kDelay:
      return "delay";
    case EventKind::kSlot:
      return "slot";
    case EventKind::kPull:
      return "pull";
    case EventKind::kController:
      return "controller";
  }
  return "unknown";
}

EventQueue::EventQueue(uint32_t lanes) : lanes_(lanes) {
  BCAST_CHECK_GE(lanes, 1u);
  if (lanes > 1) parked_.resize(lanes);
}

void EventQueue::SelectLane(uint32_t lane) {
  BCAST_CHECK_LT(lane, lanes_);
  if (lane == lane_) return;
  Lane& out = parked_[lane_];
  out.heap.swap(heap_);
  out.live = live_;
  out.stale = stale_;
  Lane& in = parked_[lane];
  heap_.swap(in.heap);
  live_ = in.live;
  stale_ = in.stale;
  lane_ = lane;
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
  free_slots_.push_back(slot);
}

EventQueue::EventId EventQueue::Push(double time, EventCallback fn,
                                     EventKind kind) {
  BCAST_CHECK(std::isfinite(time))
      << "event time must be finite, got " << time;
  BCAST_CHECK_LT(next_seq_, kMaxSeq) << "EventQueue sequence exhausted";
  const uint32_t slot = AllocSlot();
  Slot& s = slab_[slot];
  s.fn = fn;
  s.lane = lane_;
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
  const uint32_t lane = slab_[slot].lane;
  FreeSlot(slot);
  if (lane == lane_) {
    --live_;
    ++stale_;
    MaybeCompact(&heap_, live_, &stale_);
  } else {
    Lane& parked = parked_[lane];
    --parked.live;
    ++parked.stale;
    MaybeCompact(&parked.heap, parked.live, &parked.stale);
  }
  return true;
}

void EventQueue::MaybeCompact(Heap* heap, uint64_t live, uint64_t* stale) {
  if (*stale <= live) return;
  *stale = 0;
  // With nothing live every ref is stale (a cancel-only queue sweeps
  // here on each cancel, so this must stay cheap).
  if (live == 0) {
    heap->clear();
    return;
  }
  heap->erase(std::remove_if(heap->begin(), heap->end(),
                             [this](const EventRef& ref) {
                               return !IsLive(ref);
                             }),
              heap->end());
  std::make_heap(heap->begin(), heap->end(), LaterRef{});
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

EventCallback EventQueue::Pop(double* time, EventKind* kind) {
  BCAST_CHECK(live_ > 0) << "Pop on empty EventQueue";
  SkipStale();
  BCAST_CHECK(!heap_.empty()) << "heap lost a live event";
  const EventRef& ref = heap_.front();
  *time = ref.time;
  if (kind != nullptr) {
    *kind = static_cast<EventKind>(ref.seq_and_kind & 0xff);
  }
  EventCallback fn = slab_[ref.slot].fn;
  FreeSlot(ref.slot);
  PopFront();
  --live_;
  return fn;
}

void EventQueue::Clear() {
  heap_.clear();
  live_ = 0;
  stale_ = 0;
  for (Lane& lane : parked_) {
    lane.heap.clear();
    lane.live = 0;
    lane.stale = 0;
  }
  // Rebuild the free list deterministically (slot 0 first out).
  free_slots_.clear();
  for (size_t i = slab_.size(); i-- > 0;) {
    Slot& s = slab_[i];
    ++s.gen;
    if (s.gen == 0) ++s.gen;
    free_slots_.push_back(static_cast<uint32_t>(i));
  }
}

void EventQueue::ReleaseLane() {
  BCAST_CHECK(live_ == 0) << "releasing a lane with pending events";
  Heap().swap(heap_);
  stale_ = 0;
}

}  // namespace bcast::des
