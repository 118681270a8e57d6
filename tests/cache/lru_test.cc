#include "cache/lru.h"

#include <gtest/gtest.h>

#include "tests/cache/fake_catalog.h"

namespace bcast {
namespace {

TEST(LruListTest, PushFrontAndBack) {
  LruList list(10, 10);
  list.PushFront(3);
  list.PushFront(5);
  list.PushFront(7);
  EXPECT_EQ(list.Front(), 7u);
  EXPECT_EQ(list.Back(), 3u);
  EXPECT_EQ(list.size(), 3u);
}

TEST(LruListTest, EmptySentinels) {
  LruList list(4, 4);
  EXPECT_EQ(list.Front(), kEmptySlot);
  EXPECT_EQ(list.Back(), kEmptySlot);
  EXPECT_EQ(list.size(), 0u);
}

TEST(LruListTest, RemoveHeadTailMiddle) {
  LruList list(10, 10);
  for (PageId p : {1, 2, 3, 4}) list.PushFront(p);  // 4 3 2 1
  list.Remove(3);                                   // middle
  EXPECT_EQ(list.size(), 3u);
  list.Remove(4);  // head
  EXPECT_EQ(list.Front(), 2u);
  list.Remove(1);  // tail
  EXPECT_EQ(list.Back(), 2u);
  EXPECT_EQ(list.size(), 1u);
  list.Remove(2);  // only element
  EXPECT_EQ(list.Front(), kEmptySlot);
}

TEST(LruListTest, TouchMovesToFront) {
  LruList list(10, 10);
  for (PageId p : {1, 2, 3}) list.PushFront(p);  // 3 2 1
  list.Touch(1);                                 // 1 3 2
  EXPECT_EQ(list.Front(), 1u);
  EXPECT_EQ(list.Back(), 2u);
  list.Touch(1);  // already front: no-op
  EXPECT_EQ(list.Front(), 1u);
}

TEST(LruListTest, ContainsTracksMembership) {
  LruList list(5, 5);
  EXPECT_FALSE(list.Contains(2));
  list.PushFront(2);
  EXPECT_TRUE(list.Contains(2));
  list.Remove(2);
  EXPECT_FALSE(list.Contains(2));
}

TEST(LruListTest, ReinsertAfterRemove) {
  LruList list(5, 5);
  list.PushFront(1);
  list.Remove(1);
  list.PushFront(1);
  EXPECT_TRUE(list.Contains(1));
  EXPECT_EQ(list.size(), 1u);
}

TEST(LruListDeathTest, DoublePushDies) {
  LruList list(5, 5);
  list.PushFront(1);
  EXPECT_DEATH(list.PushFront(1), "already linked");
}

TEST(LruListDeathTest, RemoveUnlinkedDies) {
  LruList list(5, 5);
  EXPECT_DEATH(list.Remove(1), "unlinked");
}

TEST(LruListDeathTest, TouchUnlinkedDies) {
  LruList list(5, 5);
  list.PushFront(2);
  EXPECT_DEATH(list.Touch(1), "unlinked");
}

// --- LruCache ---

TEST(LruCacheTest, MissThenHit) {
  FakeCatalog catalog(10);
  LruCache cache(3, 10, &catalog);
  EXPECT_FALSE(cache.Lookup(5, 0.0));
  cache.Insert(5, 0.0);
  EXPECT_TRUE(cache.Lookup(5, 1.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.name(), "LRU");
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  FakeCatalog catalog(10);
  LruCache cache(3, 10, &catalog);
  for (PageId p : {0, 1, 2}) cache.Insert(p, 0.0);
  cache.Insert(3, 1.0);  // evicts 0
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruCacheTest, HitRefreshesRecency) {
  FakeCatalog catalog(10);
  LruCache cache(3, 10, &catalog);
  for (PageId p : {0, 1, 2}) cache.Insert(p, 0.0);
  cache.Lookup(0, 1.0);  // 0 becomes MRU
  cache.Insert(3, 2.0);  // evicts 1, not 0
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(1));
}

TEST(LruCacheTest, CapacityOneReplacesEveryInsert) {
  FakeCatalog catalog(10);
  LruCache cache(1, 10, &catalog);
  cache.Insert(0, 0.0);
  cache.Insert(1, 1.0);
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, NeverExceedsCapacity) {
  FakeCatalog catalog(100);
  LruCache cache(7, 100, &catalog);
  for (PageId p = 0; p < 100; ++p) {
    if (!cache.Lookup(p, p)) cache.Insert(p, p);
    EXPECT_LE(cache.size(), 7u);
  }
  EXPECT_EQ(cache.size(), 7u);
}

TEST(LruCacheDeathTest, InsertingCachedPageDies) {
  FakeCatalog catalog(10);
  LruCache cache(3, 10, &catalog);
  cache.Insert(1, 0.0);
  EXPECT_DEATH(cache.Insert(1, 1.0), "cached page");
}

TEST(LruCacheDeathTest, ZeroCapacityDies) {
  FakeCatalog catalog(10);
  EXPECT_DEATH(LruCache(0, 10, &catalog), "at least 1");
}

}  // namespace
}  // namespace bcast
