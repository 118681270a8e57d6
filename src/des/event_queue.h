/// \file event_queue.h
/// \brief The pending-event set of the discrete-event simulation kernel.
///
/// `EventQueue` owns every event payload in a generation-tagged slot slab
/// and orders lightweight 24-byte refs to those payloads in a binary
/// min-heap. The contract — timestamp order, FIFO tie-break on schedule
/// sequence, O(1) `Cancel`, `EventKind` tagging — is checked against a
/// test-local ordered-map reference by the randomized differential suite
/// (tests/des/queue_differential_test.cc) and end to end by the goldens.

#ifndef BCAST_DES_EVENT_QUEUE_H_
#define BCAST_DES_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace bcast::des {

/// \brief What a scheduled event does, for per-kind DES profiling and
/// timeline attribution. Purely descriptive: kinds never affect ordering
/// or dispatch, so tagging a call site cannot change a simulation.
enum class EventKind : uint8_t {
  kGeneric = 0,    ///< untagged call sites
  kProcessStart,   ///< coroutine start scheduled by Spawn
  kDelay,          ///< Delay awaiter resumption (think times)
  kSignal,         ///< Event::Signal wake-ups
  kSlot,           ///< broadcast-channel slot arrivals
  kPull,           ///< pull-server service/delivery and client timeouts
  kController,     ///< adaptive-controller epoch ticks
};

/// Number of distinct `EventKind` values (array sizing).
inline constexpr size_t kNumEventKinds = 7;

/// Stable lower-case name of \p kind (report extra keys).
const char* EventKindName(EventKind kind);

/// \brief A time-ordered queue of callbacks with FIFO tie-breaking.
///
/// Events at equal timestamps fire in the order they were scheduled, which
/// makes simulations deterministic — a property the paper's reproducibility
/// (and our tests) depend on.
///
/// Payloads (the `std::function` callbacks) live in a slab of reusable
/// slots; each slot carries a generation counter bumped on every reuse.
/// Cancellation is O(1): the slot is reclaimed immediately (its callback
/// released), and the stale ref the heap still holds is recognized by
/// its outdated generation and dropped lazily — or purged in bulk when
/// stale refs outnumber live events, so repeated schedule/cancel cycles
/// keep memory proportional to the live population.
class EventQueue {
 public:
  /// Opaque handle identifying a scheduled event, usable to cancel it.
  /// Handles are never zero and never reused within a generation epoch
  /// of their slot; a run's handle sequence is deterministic.
  using EventId = uint64_t;

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules \p fn at absolute \p time (any finite value; NaN and
  /// infinities are rejected). Returns an id for cancellation.
  EventId Push(double time, std::function<void()> fn,
               EventKind kind = EventKind::kGeneric);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was cancelled before, or never existed. O(1): the payload slot is
  /// reclaimed immediately; the heap's ref is dropped lazily.
  bool Cancel(EventId id);

  /// True when no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, unfired) events.
  uint64_t size() const { return live_; }

  /// Timestamp of the earliest live event. Must not be called when empty.
  double PeekTime();

  /// Removes and returns the earliest live event's callback, setting
  /// \p time to its timestamp (and \p kind, when non-null, to its kind).
  /// Must not be called when empty.
  std::function<void()> Pop(double* time, EventKind* kind = nullptr);

  /// Drops all pending events and releases their callbacks.
  void Clear();

  /// \name Memory introspection (tests and diagnostics).
  /// @{
  /// Refs the heap holds, cancelled stragglers included.
  uint64_t heap_entries() const { return heap_.size(); }

  /// Payload slots ever allocated (the slab's high-water mark).
  uint64_t allocated_slots() const { return slab_.size(); }
  /// @}

 private:
  // The kind rides in the low byte under the shifted sequence number so
  // the heap orders one packed word. Sequences are unique, so comparing
  // the packed word IS the FIFO tie-break (the kind byte never decides),
  // and 2^56 sequence numbers is far beyond any run.
  static constexpr int kKindBits = 8;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << (64 - kKindBits);

  // One scheduled event as the heap sees it: ordering key plus the slab
  // coordinates of the payload. 24 bytes, trivially copyable — the heap
  // shuffles refs, never `std::function` payloads.
  struct EventRef {
    double time;            // absolute timestamp, always finite
    uint64_t seq_and_kind;  // (sequence << kKindBits) | kind
    uint32_t slot;          // slab slot of the payload
    uint32_t gen;           // slot generation at push time
  };

  // Dispatch order: earliest time first, FIFO within a timestamp.
  static bool EarlierRef(const EventRef& a, const EventRef& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq_and_kind < b.seq_and_kind;
  }

  // std::push_heap builds a max-heap, so the heap's comparator inverts
  // EarlierRef to keep the earliest ref at the front.
  struct LaterRef {
    bool operator()(const EventRef& a, const EventRef& b) const {
      return EarlierRef(b, a);
    }
  };

  // One payload slot. `gen` starts at 1 and is bumped on every reclaim
  // (pop or cancel), so a generation match means exactly one thing: the
  // ref belongs to the slot's current, still-live owner. Ids are
  // therefore never zero and stale cancels of any vintage fail cleanly.
  struct Slot {
    std::function<void()> fn;
    uint32_t gen = 0;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) | slot;
  }

  uint32_t AllocSlot();

  // Reclaims \p slot: bumps the generation (staling any heap ref),
  // releases the callback, and returns the slot to the free list.
  void FreeSlot(uint32_t slot);

  // True when \p ref still points at the live owner of its slot.
  bool IsLive(const EventRef& ref) const {
    return slab_[ref.slot].gen == ref.gen;
  }

  // Removes the heap's front ref.
  void PopFront();

  // Drops stale refs off the heap's front until a live event (or
  // nothing) is there.
  void SkipStale();

  // Purges all stale refs from the heap when they outnumber the live
  // events, bounding heap memory at O(live).
  void MaybeCompact();

  std::vector<EventRef> heap_;  // min-heap under LaterRef
  std::vector<Slot> slab_;
  std::vector<uint32_t> free_slots_;
  uint64_t live_ = 0;
  uint64_t stale_ = 0;  // cancelled refs still inside heap_
  uint64_t next_seq_ = 1;
};

}  // namespace bcast::des

#endif  // BCAST_DES_EVENT_QUEUE_H_
