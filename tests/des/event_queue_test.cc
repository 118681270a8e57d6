#include "des/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace bcast::des {
namespace {

class EventQueueTest : public testing::Test {
 protected:
  EventQueue q;
};

TEST_F(EventQueueTest, StartsEmpty) {
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST_F(EventQueueTest, PopsInTimeOrder) {
  std::vector<int> order;
  q.Push(3.0, [&] { order.push_back(3); });
  q.Push(1.0, [&] { order.push_back(1); });
  q.Push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    double t;
    q.Pop(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventQueueTest, EqualTimesFireFifo) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    double t;
    q.Pop(&t)();
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(EventQueueTest, PopReportsTime) {
  q.Push(7.25, [] {});
  double t = 0.0;
  q.Pop(&t);
  EXPECT_DOUBLE_EQ(t, 7.25);
}

TEST_F(EventQueueTest, PopReportsKind) {
  q.Push(1.0, [] {}, EventKind::kSlot);
  q.Push(2.0, [] {}, EventKind::kPull);
  double t;
  EventKind kind;
  q.Pop(&t, &kind);
  EXPECT_EQ(kind, EventKind::kSlot);
  q.Pop(&t, &kind);
  EXPECT_EQ(kind, EventKind::kPull);
}

TEST_F(EventQueueTest, PeekTimeDoesNotPop) {
  q.Push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST_F(EventQueueTest, CancelRemovesEvent) {
  bool fired = false;
  const auto id = q.Push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST_F(EventQueueTest, CancelTwiceFails) {
  const auto id = q.Push(1.0, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST_F(EventQueueTest, CancelFiredEventFails) {
  const auto id = q.Push(1.0, [] {});
  double t;
  q.Pop(&t);
  EXPECT_FALSE(q.Cancel(id));
}

TEST_F(EventQueueTest, CancelUnknownIdFails) {
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_FALSE(q.Cancel(999));
}

TEST_F(EventQueueTest, CancelStaleIdFromReusedSlotFails) {
  const auto id1 = q.Push(1.0, [] {});
  double t;
  q.Pop(&t);
  // The new event reuses the slot under a new generation; the old id
  // must not cancel it.
  const auto id2 = q.Push(2.0, [] {});
  EXPECT_NE(id1, id2);
  EXPECT_FALSE(q.Cancel(id1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.Cancel(id2));
}

TEST_F(EventQueueTest, CancelMiddleKeepsOthers) {
  std::vector<int> order;
  q.Push(1.0, [&] { order.push_back(1); });
  const auto id2 = q.Push(2.0, [&] { order.push_back(2); });
  q.Push(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.Cancel(id2));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) {
    double t;
    q.Pop(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST_F(EventQueueTest, CancelHeadAdvancesPeek) {
  const auto id1 = q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_TRUE(q.Cancel(id1));
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
}

TEST_F(EventQueueTest, ClearDropsEverything) {
  q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST_F(EventQueueTest, ClearInvalidatesOldIds) {
  const auto id = q.Push(1.0, [] {});
  q.Clear();
  EXPECT_FALSE(q.Cancel(id));
  q.Push(2.0, [] {});
  EXPECT_FALSE(q.Cancel(id));
}

TEST_F(EventQueueTest, NegativeTimesAreOrdered) {
  std::vector<double> popped;
  q.Push(0.0, [] {});
  q.Push(-5.5, [] {});
  q.Push(-1.0, [] {});
  while (!q.empty()) {
    double t;
    q.Pop(&t);
    popped.push_back(t);
  }
  EXPECT_EQ(popped, (std::vector<double>{-5.5, -1.0, 0.0}));
}

TEST_F(EventQueueTest, ManyEventsStressOrder) {
  // Deterministic pseudo-random times with duplicates.
  uint64_t state = 42;
  std::vector<double> times;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    times.push_back(static_cast<double>(state % 97));
  }
  std::vector<double> popped;
  for (double t : times) q.Push(t, [] {});
  while (!q.empty()) {
    double t;
    q.Pop(&t);
    popped.push_back(t);
  }
  for (size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1], popped[i]);
  }
  EXPECT_EQ(popped.size(), times.size());
}

using EventQueueDeathTest = EventQueueTest;

TEST_F(EventQueueDeathTest, PopEmptyDies) {
  double t;
  EXPECT_DEATH(q.Pop(&t), "empty EventQueue");
}

TEST_F(EventQueueDeathTest, PeekEmptyDies) {
  EXPECT_DEATH(q.PeekTime(), "empty EventQueue");
}

TEST_F(EventQueueDeathTest, NonFiniteTimesRejected) {
  EXPECT_DEATH(q.Push(std::numeric_limits<double>::quiet_NaN(), [] {}),
               "finite");
  EXPECT_DEATH(q.Push(std::numeric_limits<double>::infinity(), [] {}),
               "finite");
  EXPECT_DEATH(q.Push(-std::numeric_limits<double>::infinity(), [] {}),
               "finite");
}

// --- Memory bounds ------------------------------------------------------
//
// The old kernel kept every cancelled far-future event inside its heap
// (and its id in two hash sets) until the simulation's clock reached the
// event's timestamp — never, for periodic-timeout workloads. These tests
// pin the fix: stale refs are compacted once they outnumber live events,
// and Clear releases everything.

TEST(EventQueueMemoryTest, RepeatedScheduleCancelStaysBounded) {
  EventQueue q;
  // One long-lived event keeps the queue non-empty (live_ == 1).
  q.Push(1e18, [] {});
  for (int i = 0; i < 100000; ++i) {
    // A timeout scheduled far in the future and cancelled before
    // firing — the pattern that leaked before.
    const auto id = q.Push(1e12 + i, [] {});
    ASSERT_TRUE(q.Cancel(id));
    ASSERT_EQ(q.size(), 1u);
  }
  // Stale refs are purged whenever they outnumber live events (floor
  // 64), so the heap never holds more than live + floor + 1 refs.
  EXPECT_LE(q.heap_entries(), 66u);
  // And the payload slab reuses the same slot every cycle.
  EXPECT_LE(q.allocated_slots(), 2u);
}

TEST(EventQueueMemoryTest, ScheduleCancelClearCyclesKeepSlabBounded) {
  EventQueue q;
  for (int cycle = 0; cycle < 200; ++cycle) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(q.Push(static_cast<double>(i), [] {}));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      ASSERT_TRUE(q.Cancel(ids[i]));
    }
    q.Clear();
    ASSERT_TRUE(q.empty());
    ASSERT_EQ(q.heap_entries(), 0u);
  }
  // 200 cycles of 100 events reuse the same 100 slots.
  EXPECT_EQ(q.allocated_slots(), 100u);
}

TEST(EventQueueMemoryTest, CompactionPreservesOrderUnderChurn) {
  // Heavy cancel churn with interleaved pops: compaction must never
  // reorder or lose the surviving events.
  EventQueue q;
  Rng rng(99);
  std::vector<double> survivors;
  for (int i = 0; i < 20000; ++i) {
    const double t = rng.NextDouble() * 1e6;
    const auto id = q.Push(t, [] {});
    if (rng.NextBernoulli(0.9)) {
      ASSERT_TRUE(q.Cancel(id));
    } else {
      survivors.push_back(t);
    }
  }
  std::sort(survivors.begin(), survivors.end());
  for (const double expect : survivors) {
    double t;
    q.Pop(&t);
    ASSERT_DOUBLE_EQ(t, expect);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace bcast::des
