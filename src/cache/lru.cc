#include "cache/lru.h"

#include "common/logging.h"

namespace bcast {

LruList::LruList(PageId num_pages, uint64_t capacity)
    : index_(num_pages, kNoNode) {
  nodes_.reserve(capacity);
}

void LruList::Unlink(uint32_t n) {
  const Node& node = nodes_[n];
  if (node.prev != kNoNode) {
    nodes_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNoNode) {
    nodes_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

void LruList::LinkFront(uint32_t n) {
  Node& node = nodes_[n];
  node.prev = kNoNode;
  node.next = head_;
  if (head_ != kNoNode) {
    nodes_[head_].prev = n;
  } else {
    tail_ = n;
  }
  head_ = n;
}

void LruList::PushFront(PageId page) {
  BCAST_CHECK(index_[page] == kNoNode) << "page already linked";
  uint32_t n = free_;
  if (n != kNoNode) {
    free_ = nodes_[n].next;
    nodes_[n].page = page;
  } else {
    n = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{page, kNoNode, kNoNode});
  }
  LinkFront(n);
  index_[page] = n;
  ++size_;
}

void LruList::Remove(PageId page) {
  const uint32_t n = index_[page];
  BCAST_CHECK(n != kNoNode) << "removing unlinked page";
  Unlink(n);
  nodes_[n].next = free_;
  free_ = n;
  index_[page] = kNoNode;
  --size_;
}

void LruList::Touch(PageId page) {
  const uint32_t n = index_[page];
  BCAST_CHECK(n != kNoNode) << "touching unlinked page";
  if (n == head_) return;
  Unlink(n);
  LinkFront(n);
}

void LruList::Clear() {
  for (uint32_t n = head_; n != kNoNode; n = nodes_[n].next) {
    index_[nodes_[n].page] = kNoNode;
  }
  nodes_.clear();
  head_ = tail_ = free_ = kNoNode;
  size_ = 0;
}

LruCache::LruCache(uint64_t capacity, PageId num_pages,
                   const PageCatalog* catalog)
    : CachePolicy(capacity, num_pages, catalog),
      list_(num_pages, capacity) {}

bool LruCache::Lookup(PageId page, double /*now*/) {
  if (!list_.Contains(page)) return false;
  list_.Touch(page);
  return true;
}

void LruCache::Insert(PageId page, double /*now*/) {
  BCAST_CHECK(!list_.Contains(page)) << "inserting a cached page";
  if (list_.size() == capacity()) {
    const PageId victim = list_.Back();
    list_.Remove(victim);
    NotifyEviction(victim, 0.0);  // LRU has no eviction score
  }
  list_.PushFront(page);
}

}  // namespace bcast
