/// \file spsc_queue.h
/// \brief Bounded single-producer/single-consumer ring with a mutexed
/// overflow spill.
///
/// Each population shard owns one of these toward the coordinator: the
/// shard's thread is the only producer (client uplink submits during a
/// round), the coordinator the only consumer (drained at the round
/// barrier). For shard 0 both are the coordinator's thread. The fast path is the classic cache-line-padded
/// head/tail ring (DRAMHiT's bqueue shape): the producer writes the slot
/// then publishes `tail` with a release store; the consumer reads `tail`
/// with acquire and bumps `head`. A full ring spills to a mutex-guarded
/// vector rather than blocking the simulation — correctness never
/// depends on capacity, only the fast-path hit rate does.
///
/// Drain-at-barrier FIFO: `TryPop` empties the ring before touching the
/// spill, and the producer only spills while the ring is full, so the
/// pop order during a barrier drain (producer parked) is exactly the
/// push order.

#ifndef BCAST_POP_SPSC_QUEUE_H_
#define BCAST_POP_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/logging.h"

namespace bcast::pop {

template <typename T>
class SpscQueue {
 public:
  /// \p capacity is rounded up to a power of two (minimum 2).
  explicit SpscQueue(size_t capacity = 1024) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer: enqueues \p value; never fails (full ring spills).
  void Push(const T& value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    if (tail - head <= mask_) {
      ring_[tail & mask_] = value;
      tail_.store(tail + 1, std::memory_order_release);
      return;
    }
    std::lock_guard<std::mutex> lock(spill_mu_);
    spill_.push_back(value);
    ++spilled_;
  }

  /// Consumer: dequeues into \p out; false when empty. Ring first, then
  /// the spill — FIFO when the producer is parked (barrier drain).
  bool TryPop(T* out) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    if (head != tail) {
      *out = ring_[head & mask_];
      head_.store(head + 1, std::memory_order_release);
      return true;
    }
    std::lock_guard<std::mutex> lock(spill_mu_);
    if (spill_head_ >= spill_.size()) {
      if (!spill_.empty()) {
        spill_.clear();
        spill_head_ = 0;
      }
      return false;
    }
    *out = spill_[spill_head_++];
    return true;
  }

  /// Entries that missed the ring (diagnostics; racy outside barriers).
  uint64_t spilled() const { return spilled_; }

  /// Ring capacity after rounding.
  size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<T> ring_;
  size_t mask_ = 0;
  // Producer and consumer cursors on their own cache lines so the two
  // threads never false-share.
  alignas(64) std::atomic<size_t> tail_{0};
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::mutex spill_mu_;
  std::vector<T> spill_;
  size_t spill_head_ = 0;
  uint64_t spilled_ = 0;
};

}  // namespace bcast::pop

#endif  // BCAST_POP_SPSC_QUEUE_H_
