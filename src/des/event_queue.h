/// \file event_queue.h
/// \brief The pending-event set of the discrete-event simulation kernel.
///
/// `EventQueue` owns every event payload in a generation-tagged slot slab
/// and orders lightweight 24-byte refs to those payloads in a binary
/// min-heap. A payload is an `EventCallback`: a trivially copyable
/// callable of at most 24 bytes stored inline, so once the slab and heap
/// have grown to a run's live depth, scheduling an event allocates
/// nothing. A cancelled ref stays in the heap until a pop reaches it or
/// a cancel leaves the stale refs outnumbering the live events, when one
/// sweep drops them all. The contract — timestamp order, FIFO tie-break
/// on schedule sequence, O(1) `Cancel`, `EventKind` tagging — is checked
/// against a test-local ordered-map reference by the randomized
/// differential suite (tests/des/queue_differential_test.cc) and end to
/// end by the goldens.
///
/// A queue may hold several *lanes*: independent pending sets, each its
/// own heap, that share the payload slab and the sequence counter. Push,
/// PeekTime and Pop act on the selected lane, whose heap sits in place
/// while the others are parked; Cancel finds the event's lane itself.
/// One lane (the default) is the plain queue, with nothing parked.

#ifndef BCAST_DES_EVENT_QUEUE_H_
#define BCAST_DES_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace bcast::des {

/// \brief What a scheduled event does, for per-kind DES profiling and
/// timeline attribution. Purely descriptive: kinds never affect ordering
/// or dispatch, so tagging a call site cannot change a simulation.
enum class EventKind : uint8_t {
  kGeneric = 0,    ///< untagged call sites
  kProcessStart,   ///< coroutine start scheduled by Spawn
  kDelay,          ///< Delay awaiter resumption (think times)
  kSlot,           ///< broadcast-channel slot arrivals
  kPull,           ///< pull-server service/delivery and client timeouts
  kController,     ///< adaptive-controller epoch ticks
};

/// Number of distinct `EventKind` values (array sizing).
inline constexpr size_t kNumEventKinds = 6;

/// Stable lower-case name of \p kind (report extra keys).
const char* EventKindName(EventKind kind);

/// \brief An event's callback, stored inline: any trivially copyable
/// callable of at most `kCapacity` bytes (a lambda capturing up to three
/// pointers or scalars). A larger or non-trivial capture does not
/// compile; capture a pointer to the state instead. There is no heap
/// fallback, so scheduling and firing an event never allocate, and
/// copying or dropping a callback is a plain memory copy.
class EventCallback {
 public:
  static constexpr size_t kCapacity = 24;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventCallback(F fn) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(F) <= kCapacity,
                  "an event callback captures at most 24 bytes");
    static_assert(alignof(F) <= kStorageAlign,
                  "an event callback's capture is over-aligned");
    static_assert(std::is_trivially_copyable_v<F>,
                  "an event callback must be trivially copyable");
    ::new (static_cast<void*>(storage_)) F(fn);
    invoke_ = [](void* storage) { (*static_cast<F*>(storage))(); };
  }

  /// Runs the callable. Must not be called on a default-constructed
  /// callback.
  void operator()() { invoke_(storage_); }

 private:
  static constexpr size_t kStorageAlign = alignof(double);

  void (*invoke_)(void*) = nullptr;
  alignas(kStorageAlign) unsigned char storage_[kCapacity];
};

/// \brief A time-ordered queue of callbacks with FIFO tie-breaking.
///
/// Events at equal timestamps fire in the order they were scheduled, which
/// makes simulations deterministic — a property the paper's reproducibility
/// (and our tests) depend on.
///
/// Payloads (inline `EventCallback`s) live in a slab of reusable slots;
/// each slot carries a generation counter bumped on every reuse.
/// Cancellation is O(1): the slot is reclaimed immediately, and the
/// stale ref the heap still holds is recognized by its outdated
/// generation and dropped lazily — or swept in bulk as soon as a cancel
/// leaves stale refs outnumbering live events, so right after a cancel
/// the heap holds at most twice its live events.
class EventQueue {
 public:
  /// Opaque handle identifying a scheduled event, usable to cancel it.
  /// Handles are never zero and never reused within a generation epoch
  /// of their slot; a run's handle sequence is deterministic.
  using EventId = uint64_t;

  /// A queue of \p lanes independent pending sets (>= 1); lane 0 is
  /// selected.
  explicit EventQueue(uint32_t lanes = 1);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Number of lanes.
  uint32_t lanes() const { return lanes_; }

  /// The lane Push, PeekTime and Pop act on.
  uint32_t lane() const { return lane_; }

  /// Selects \p lane (< lanes()).
  void SelectLane(uint32_t lane);

  /// Schedules \p fn at absolute \p time (any finite value; NaN and
  /// infinities are rejected) in the selected lane. Returns an id for
  /// cancellation.
  EventId Push(double time, EventCallback fn,
               EventKind kind = EventKind::kGeneric);

  /// Cancels a pending event, in whichever lane holds it. Returns false
  /// if the event already fired, was cancelled before, or never existed.
  /// Amortized O(1): the payload slot is reclaimed immediately; the
  /// heap's ref is dropped lazily or by a sweep.
  bool Cancel(EventId id);

  /// True when the selected lane has no live events.
  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, unfired) events in the selected lane.
  uint64_t size() const { return live_; }

  /// Timestamp of the selected lane's earliest live event. Must not be
  /// called when empty.
  double PeekTime();

  /// Removes and returns the selected lane's earliest live event's
  /// callback, setting \p time to its timestamp (and \p kind, when
  /// non-null, to its kind). Must not be called when empty.
  EventCallback Pop(double* time, EventKind* kind = nullptr);

  /// Drops all pending events of every lane.
  void Clear();

  /// Frees the selected lane's heap storage; the lane must be empty. A
  /// finished lane then holds no memory of its own.
  void ReleaseLane();

  /// \name Memory introspection (tests and diagnostics).
  /// @{
  /// Refs the selected lane's heap holds, cancelled stragglers included.
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
  // shuffles refs, never payloads.
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
  // `lane` names the heap holding the slot's ref (it fits the padding).
  struct Slot {
    EventCallback fn;
    uint32_t gen = 0;
    uint32_t lane = 0;
  };

  using Heap = std::vector<EventRef>;

  // A parked lane's pending set: its heap of refs and its live and
  // cancelled-but-still-heaped counts.
  struct Lane {
    Heap heap;
    uint64_t live = 0;
    uint64_t stale = 0;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) | slot;
  }

  uint32_t AllocSlot();

  // Reclaims \p slot: bumps the generation (staling any heap ref) and
  // returns the slot to the free list.
  void FreeSlot(uint32_t slot);

  // True when \p ref still points at the live owner of its slot.
  bool IsLive(const EventRef& ref) const {
    return slab_[ref.slot].gen == ref.gen;
  }

  // Removes the selected lane's front ref.
  void PopFront();

  // Drops stale refs off the selected lane's front until a live event
  // (or nothing) is there.
  void SkipStale();

  // Sweeps all stale refs from \p heap as soon as they outnumber its
  // \p live events, bounding heap memory at O(live).
  void MaybeCompact(Heap* heap, uint64_t live, uint64_t* stale);

  // The selected lane's pending set.
  Heap heap_;
  std::vector<Slot> slab_;
  std::vector<uint32_t> free_slots_;
  uint64_t live_ = 0;
  uint64_t stale_ = 0;  // cancelled refs still inside heap_
  uint64_t next_seq_ = 1;
  uint32_t lanes_;
  uint32_t lane_ = 0;
  // Every lane's parked pending set (the selected lane's entry is empty
  // while it is selected); empty for a one-lane queue.
  std::vector<Lane> parked_;
};

}  // namespace bcast::des

#endif  // BCAST_DES_EVENT_QUEUE_H_
