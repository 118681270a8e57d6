// Differential tests of LruList against a std::list + map model: alone
// under random pushes, removals, touches and clears, and as the engine
// of the LRU and 2Q replacement policies, whose hits, victims and queue
// sizes must match model policies built on the model list.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <list>
#include <random>
#include <unordered_map>
#include <vector>

#include "cache/lru.h"
#include "cache/two_q.h"
#include "tests/cache/fake_catalog.h"

namespace bcast {
namespace {

/// The obvious LRU list: a std::list in MRU-to-LRU order plus a map from
/// page to list position.
class ModelList {
 public:
  void PushFront(PageId page) {
    order_.push_front(page);
    where_[page] = order_.begin();
  }
  void Remove(PageId page) {
    auto it = where_.find(page);
    order_.erase(it->second);
    where_.erase(it);
  }
  void Touch(PageId page) {
    order_.splice(order_.begin(), order_, where_.at(page));
  }
  PageId Back() const { return order_.empty() ? kEmptySlot : order_.back(); }
  PageId Front() const {
    return order_.empty() ? kEmptySlot : order_.front();
  }
  bool Contains(PageId page) const { return where_.count(page) > 0; }
  uint64_t size() const { return order_.size(); }
  void Clear() {
    order_.clear();
    where_.clear();
  }

 private:
  std::list<PageId> order_;
  std::unordered_map<PageId, std::list<PageId>::iterator> where_;
};

void ExpectSameList(const LruList& got, const ModelList& want,
                    PageId num_pages) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.Front(), want.Front());
  ASSERT_EQ(got.Back(), want.Back());
  for (PageId p = 0; p < num_pages; ++p) {
    ASSERT_EQ(got.Contains(p), want.Contains(p)) << "page " << p;
  }
}

/// Empties both lists from the LRU end, checking the whole order.
void DrainBoth(LruList* got, ModelList* want, PageId num_pages) {
  while (want->size() > 0) {
    const PageId victim = want->Back();
    ASSERT_EQ(got->Back(), victim);
    got->Remove(victim);
    want->Remove(victim);
    ExpectSameList(*got, *want, num_pages);
  }
}

TEST(LruListDifferentialTest, RandomOperationsMatchModel) {
  constexpr PageId kPages = 40;
  std::mt19937_64 rng(17);
  // Up to all 40 pages link at once, past the 8 nodes reserved.
  LruList list(kPages, 8);
  ModelList model;
  for (int round = 0; round < 20; ++round) {
    for (int op = 0; op < 5000; ++op) {
      const PageId page = static_cast<PageId>(rng() % kPages);
      if (!model.Contains(page)) {
        list.PushFront(page);
        model.PushFront(page);
      } else if (rng() % 3 == 0) {
        list.Remove(page);
        model.Remove(page);
      } else {
        list.Touch(page);
        model.Touch(page);
      }
      ExpectSameList(list, model, kPages);
    }
    // Alternate the two ways of emptying: a drain recycles every node
    // through the free list, a Clear drops the node pool; both lists are
    // reused afterwards.
    if (round % 2 == 0) {
      DrainBoth(&list, &model, kPages);
    } else {
      list.Clear();
      model.Clear();
      ExpectSameList(list, model, kPages);
    }
  }
}

/// Accesses skewed toward a hot set, so both hits and evictions happen.
PageId SkewedPage(std::mt19937_64* rng, PageId num_pages) {
  const PageId hot = num_pages / 8;
  return static_cast<PageId>((*rng)() % 2 == 0 ? (*rng)() % hot
                                                : (*rng)() % num_pages);
}

TEST(LruListDifferentialTest, LruCacheVictimsMatchModel) {
  constexpr PageId kPages = 64;
  constexpr uint64_t kCapacity = 16;
  FakeCatalog catalog(kPages);
  LruCache cache(kCapacity, kPages, &catalog);
  std::vector<PageId> victims;
  cache.SetEvictionCallback(
      [&victims](PageId victim, double) { victims.push_back(victim); });
  ModelList model;
  std::vector<PageId> model_victims;
  std::mt19937_64 rng(23);
  for (int i = 0; i < 100000; ++i) {
    if (i % 10000 == 9999) {
      cache.Clear();
      model.Clear();
    }
    const PageId page = SkewedPage(&rng, kPages);
    const bool hit = cache.Lookup(page, i);
    if (!hit) cache.Insert(page, i);
    ASSERT_EQ(hit, model.Contains(page)) << "access " << i;
    if (hit) {
      model.Touch(page);
    } else {
      if (model.size() == kCapacity) {
        model_victims.push_back(model.Back());
        model.Remove(model.Back());
      }
      model.PushFront(page);
    }
    ASSERT_EQ(victims, model_victims) << "access " << i;
    ASSERT_EQ(cache.size(), model.size());
  }
  EXPECT_GT(victims.size(), 10000u);
}

/// 2Q as described in two_q.h, over the model list.
class Model2Q {
 public:
  Model2Q(uint64_t capacity, const FakeCatalog* catalog, TwoQOptions options)
      : capacity_(capacity),
        kin_(std::max<uint64_t>(
            1, static_cast<uint64_t>(options.kin_fraction *
                                     static_cast<double>(capacity)))),
        kout_(std::max<uint64_t>(
            1, static_cast<uint64_t>(options.kout_fraction *
                                     static_cast<double>(capacity)))),
        use_frequency_(options.use_frequency),
        catalog_(catalog) {}

  /// Lookup, then insert on a miss; true on a hit.
  bool Access(PageId page) {
    if (am_.Contains(page)) {
      am_.Touch(page);
      return true;
    }
    if (a1in_.Contains(page)) return true;
    if (a1in_.size() + am_.size() == capacity_) Reclaim();
    auto ghost = std::find(a1out_.begin(), a1out_.end(), page);
    if (ghost != a1out_.end()) {
      a1out_.erase(ghost);
      am_.PushFront(page);
    } else {
      a1in_.PushFront(page);
    }
    return false;
  }

  void Clear() {
    a1in_.Clear();
    am_.Clear();
    a1out_.clear();
  }

  bool Contains(PageId page) const {
    return a1in_.Contains(page) || am_.Contains(page);
  }
  uint64_t a1in_size() const { return a1in_.size(); }
  uint64_t am_size() const { return am_.size(); }
  uint64_t a1out_size() const { return a1out_.size(); }

 private:
  void Reclaim() {
    PageId a1_victim = a1in_.size() >= kin_ ? a1in_.Back() : kEmptySlot;
    const PageId am_victim = am_.Back();
    if (a1_victim == kEmptySlot && am_victim == kEmptySlot) {
      a1_victim = a1in_.Back();
    }
    if (use_frequency_ && a1_victim != kEmptySlot &&
        am_victim != kEmptySlot &&
        catalog_->Frequency(a1_victim) < catalog_->Frequency(am_victim)) {
      am_.Remove(am_victim);
      return;
    }
    if (a1_victim != kEmptySlot) {
      a1in_.Remove(a1_victim);
      a1out_.push_front(a1_victim);
      if (a1out_.size() > kout_) a1out_.pop_back();
    } else {
      am_.Remove(am_victim);
    }
  }

  uint64_t capacity_;
  uint64_t kin_;
  uint64_t kout_;
  bool use_frequency_;
  const FakeCatalog* catalog_;
  ModelList a1in_;
  ModelList am_;
  std::deque<PageId> a1out_;
};

void RunTwoQAgainstModel(bool use_frequency) {
  constexpr PageId kPages = 64;
  constexpr uint64_t kCapacity = 16;
  FakeCatalog catalog(kPages);
  std::mt19937_64 rng(use_frequency ? 31 : 29);
  for (PageId p = 0; p < kPages; ++p) {
    catalog.set_frequency(p, static_cast<double>(1 + rng() % 4));
  }
  TwoQOptions options;
  options.use_frequency = use_frequency;
  TwoQCache cache(kCapacity, kPages, &catalog, options);
  Model2Q model(kCapacity, &catalog, options);
  uint64_t misses = 0;
  for (int i = 0; i < 100000; ++i) {
    if (i % 10000 == 9999) {
      cache.Clear();
      model.Clear();
    }
    const PageId page = SkewedPage(&rng, kPages);
    const bool hit = cache.Lookup(page, i);
    if (!hit) {
      cache.Insert(page, i);
      ++misses;
    }
    ASSERT_EQ(hit, model.Access(page)) << "access " << i;
    ASSERT_EQ(cache.a1in_size(), model.a1in_size()) << "access " << i;
    ASSERT_EQ(cache.am_size(), model.am_size()) << "access " << i;
    ASSERT_EQ(cache.a1out_size(), model.a1out_size()) << "access " << i;
    for (PageId p = 0; p < kPages; ++p) {
      ASSERT_EQ(cache.Contains(p), model.Contains(p))
          << "access " << i << " page " << p;
    }
  }
  EXPECT_GT(misses, 10000u);
}

TEST(LruListDifferentialTest, TwoQMatchesModel) { RunTwoQAgainstModel(false); }

TEST(LruListDifferentialTest, TwoQXMatchesModel) { RunTwoQAgainstModel(true); }

}  // namespace
}  // namespace bcast
