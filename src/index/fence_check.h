#ifndef NAMTREE_INDEX_FENCE_CHECK_H_
#define NAMTREE_INDEX_FENCE_CHECK_H_

#include <cstdint>
#include <utility>

#include "btree/page.h"
#include "btree/types.h"
#include "index/node_cache.h"

namespace namtree::index {

/// Fence validation of the client cache (docs/traversal.md, "Fence
/// validation"): what a cached entry promised about the page a descent
/// reached through it, checked against the first image of that page read
/// remotely. A cached inner image promises the high fence of the child it
/// routed to (PageView::InnerChildFence). A cached leaf route promises that
/// its leaf still covers the key under the inner (inclusive) fence
/// contract: a key equal to the leaf's high fence is a tie that a fresh
/// resolution routes to the same leaf, so only a key above the fence is
/// evidence. A broken promise drops the entry (NodeCache::Invalidate); the
/// next descent misses and re-reads it. Default-constructed, nothing is
/// promised and Check is a no-op: the state of every cacheless descent.
/// Only TraversalEngine arms one; the LeafLevel entry points take it
/// without a default, so a caller cannot drop a promise by omission.
class FenceCheck {
 public:
  FenceCheck() = default;

  /// Checks `view`, the first remote image of the promised page, and
  /// disarms: later calls (chases, re-reads after a lost lock) are no-ops.
  /// Drained leaves are skipped: epoch rebalancing leaves them in place as
  /// forwarding stubs that parents keep naming, with a zero high fence.
  void Check(const btree::PageView& view) {
    NodeCache* cache = std::exchange(cache_, nullptr);
    if (cache == nullptr || view.is_drained()) return;
    // A route is stale once its leaf no longer covers the key: the key
    // lies above the leaf's high fence, inclusively, as at an inner node.
    const bool broken =
        route_ ? view.right_sibling() != 0 && entry_ > view.high_key()
               : view.high_key() != fence_;
    if (broken) cache->Invalidate(entry_);
  }

 private:
  friend class TraversalEngine;

  FenceCheck(NodeCache* cache, uint64_t entry, btree::Key fence, bool route)
      : cache_(cache), entry_(entry), fence_(fence), route_(route) {}

  NodeCache* cache_ = nullptr;  ///< null: nothing promised
  uint64_t entry_ = 0;          ///< the promising entry's cache key
  btree::Key fence_ = 0;        ///< promised high fence (inner images)
  bool route_ = false;          ///< entry_ is a leaf route's lookup key
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_FENCE_CHECK_H_
