/// \file lru.h
/// \brief Classic LRU replacement — the paper's conventional baseline.

#ifndef BCAST_CACHE_LRU_H_
#define BCAST_CACHE_LRU_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "cache/cache_policy.h"

namespace bcast {

/// \brief Intrusive doubly-linked LRU list over a page-indexed node index.
///
/// All operations are O(1). A 4-byte index entry per page points at a
/// node, and nodes exist only for linked pages: a list never holds more
/// nodes than the most pages it had linked at once, which its cache's
/// capacity bounds. Unlinked nodes go onto an intrusive free list for
/// the next push. Used by `LruCache` and by 2Q (its A1in FIFO and Am
/// LRU), so it is exposed here.
class LruList {
 public:
  /// Creates bookkeeping for pages [0, num_pages); nothing is linked yet.
  /// Room for \p capacity nodes, the most pages the owner links at once,
  /// is reserved up front, so pushes do not reallocate mid-run.
  LruList(PageId num_pages, uint64_t capacity);

  /// Links \p page at the MRU end. Must not already be linked.
  void PushFront(PageId page);

  /// Unlinks \p page. Must be linked.
  void Remove(PageId page);

  /// Moves \p page to the MRU end. Must be linked.
  void Touch(PageId page);

  /// The LRU-end page, or kEmptySlot when empty.
  PageId Back() const {
    return tail_ == kNoNode ? kEmptySlot : nodes_[tail_].page;
  }

  /// The MRU-end page, or kEmptySlot when empty.
  PageId Front() const {
    return head_ == kNoNode ? kEmptySlot : nodes_[head_].page;
  }

  /// True iff \p page is linked in this list.
  bool Contains(PageId page) const { return index_[page] != kNoNode; }

  /// Number of linked pages.
  uint64_t size() const { return size_; }

  /// Unlinks every page (O(linked), not O(num_pages)).
  void Clear();

 private:
  static constexpr uint32_t kNoNode = std::numeric_limits<uint32_t>::max();

  /// A linked page and its neighbours, as node indices. A free node
  /// chains the free list through `next`.
  struct Node {
    PageId page;
    uint32_t prev;
    uint32_t next;
  };

  /// Splices node \p n out of the list, leaving its links stale.
  void Unlink(uint32_t n);

  /// Splices the unlinked node \p n in at the MRU end.
  void LinkFront(uint32_t n);

  std::vector<uint32_t> index_;  // page -> node, kNoNode when unlinked
  std::vector<Node> nodes_;
  uint32_t head_ = kNoNode;
  uint32_t tail_ = kNoNode;
  uint32_t free_ = kNoNode;
  uint64_t size_ = 0;
};

/// \brief Least-recently-used replacement with always-admit semantics.
class LruCache : public CachePolicy {
 public:
  LruCache(uint64_t capacity, PageId num_pages, const PageCatalog* catalog);

  bool Lookup(PageId page, double now) override;
  void Insert(PageId page, double now) override;
  bool Contains(PageId page) const override { return list_.Contains(page); }
  uint64_t size() const override { return list_.size(); }
  std::string name() const override { return "LRU"; }
  void Clear() override { list_.Clear(); }

 private:
  LruList list_;
};

}  // namespace bcast

#endif  // BCAST_CACHE_LRU_H_
