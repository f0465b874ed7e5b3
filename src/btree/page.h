#ifndef NAMTREE_BTREE_PAGE_H_
#define NAMTREE_BTREE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "btree/types.h"

namespace namtree::btree {

/// On-page header, 32 bytes, shared by every node kind and every index
/// design (the version+lock word at offset 0 is what RDMA CAS/FAA target in
/// the one-sided protocol — see Listing 4 in the paper).
struct PageHeader {
  uint64_t version_lock;   ///< bit 0 = lock bit, bits 1..63 = version
  Key high_key;            ///< exclusive upper fence; kInfinityKey at right edge
  uint64_t right_sibling;  ///< RemotePtr::raw() of the right sibling (0 = none)
  uint16_t count;          ///< live entry/key count
  uint8_t level;           ///< 0 = leaf, >0 = inner
  uint8_t flags;           ///< PageFlags
  uint32_t padding;
};

static_assert(sizeof(PageHeader) == 32, "header layout is part of the format");

enum PageFlags : uint8_t {
  /// A head node (paper §4.3): lives in the leaf sibling chain and stores
  /// remote pointers to the following real leaves, enabling prefetch.
  kHeadNodeFlag = 1,
  /// A leaf drained by epoch rebalancing: its entries moved into the right
  /// sibling and its high fence was set to 0 so every search chases right.
  /// Stays in the chain (and reachable from stale parents) until a later
  /// epoch unlinks it; never reused.
  kDrainedFlag = 2,
};

/// Byte offset of the version/lock word within a page (RDMA atomics target
/// `page_ptr + kVersionOffset`).
constexpr uint64_t kVersionOffset = 0;

/// A typed, non-owning view over one raw index page of `page_size` bytes.
///
/// Layouts (after the 32-byte header):
///   leaf : tombstone bitmap (kTombstoneBytes) | KV entries, sorted by key
///   inner: keys[capacity] | children[capacity + 1] raw pointers
///   head : raw remote pointers to the next `count` leaves
///
/// Inner-node semantics: child[i] covers keys in [keys[i-1], keys[i]);
/// child[count] covers [keys[count-1], high_key). Duplicate keys are
/// allowed (secondary, non-unique index).
class PageView {
 public:
  static constexpr uint32_t kHeaderBytes = sizeof(PageHeader);
  static constexpr uint32_t kTombstoneBytes = 64;  // up to 512 leaf slots
  static constexpr uint32_t kMinPageSize = 256;

  PageView(uint8_t* data, uint32_t page_size)
      : data_(data), page_size_(page_size) {}

  uint8_t* data() const { return data_; }
  uint32_t page_size() const { return page_size_; }

  /// Asks the host CPU to pull the whole page into cache. A hint only: it
  /// reads nothing and changes no simulated state.
  void Prefetch() const {
    for (uint32_t off = 0; off < page_size_; off += 64) {
      __builtin_prefetch(data_ + off);
    }
  }

  PageHeader& header() const {
    return *reinterpret_cast<PageHeader*>(data_);
  }

  bool is_leaf() const { return header().level == 0 && !is_head(); }
  bool is_head() const { return (header().flags & kHeadNodeFlag) != 0; }
  bool is_drained() const { return (header().flags & kDrainedFlag) != 0; }
  uint8_t level() const { return header().level; }
  uint16_t count() const { return header().count; }
  Key high_key() const { return header().high_key; }
  uint64_t right_sibling() const { return header().right_sibling; }
  uint64_t version_word() const { return header().version_lock; }

  // ---- Fence predicates ----------------------------------------------------
  //
  // The B-link fence contract is intentionally asymmetric:
  //
  //   inner: covers [low, high_key] INCLUSIVE. A key equal to a promoted
  //          separator must descend into the LEFT subtree, because
  //          straddling duplicates of the separator may live there
  //          (InnerChildFor is a lower-bound descent; SplitLeafInto keeps
  //          left-page duplicates equal to the fence). Chase only when
  //          key > high_key.
  //   leaf : covers [low, high_key) EXCLUSIVE *for termination*. Readers
  //          first inspect this leaf's content (the left half of a split
  //          may retain duplicates equal to its fence), then chase when
  //          key >= high_key.
  //   head : high_key == 0 and never covers a key; searches pass through
  //          along the sibling chain. Drained leaves likewise have
  //          high_key == 0 so every key chases right.
  //
  // A right-edge page (rightmost in its chain) has right_sibling == 0 and
  // covers everything upward; NeedsChase is false there regardless of the
  // fence.

  /// True when `key` can be resolved at this page and the descent/search
  /// must not move right. Exact complement of NeedsChase.
  bool Covers(Key key) const { return !NeedsChase(key); }

  /// True when the B-link search for `key` must follow right_sibling()
  /// before using this page (inner: key > high_key; leaf/head/drained:
  /// key >= high_key, evaluated after the page content was inspected).
  bool NeedsChase(Key key) const {
    if (right_sibling() == 0) return false;
    const Key fence = high_key();
    return header().level > 0 ? key > fence : key >= fence;
  }

  // ---- Initialisation -----------------------------------------------------

  void InitLeaf(Key high_key, uint64_t right_sibling_raw);
  void InitInner(uint8_t level, Key high_key, uint64_t right_sibling_raw);
  void InitHead(uint64_t right_sibling_raw);

  // ---- Capacities ----------------------------------------------------------

  static uint32_t LeafCapacity(uint32_t page_size) {
    return (page_size - kHeaderBytes - kTombstoneBytes) / sizeof(KV);
  }
  static uint32_t InnerKeyCapacity(uint32_t page_size) {
    // count keys + (count+1) children: 16*cap + 8 <= page_size - header.
    return (page_size - kHeaderBytes - 8) / 16;
  }
  static uint32_t HeadCapacity(uint32_t page_size) {
    return (page_size - kHeaderBytes) / 8;
  }

  uint32_t leaf_capacity() const { return LeafCapacity(page_size_); }
  uint32_t inner_capacity() const { return InnerKeyCapacity(page_size_); }
  uint32_t head_capacity() const { return HeadCapacity(page_size_); }

  // ---- Leaf operations -----------------------------------------------------

  KV* leaf_entries() const {
    return reinterpret_cast<KV*>(data_ + kHeaderBytes + kTombstoneBytes);
  }

  bool LeafIsTombstoned(uint32_t i) const {
    const uint8_t* bits = data_ + kHeaderBytes;
    return (bits[i / 8] >> (i % 8)) & 1;
  }
  void LeafSetTombstone(uint32_t i, bool dead) const {
    uint8_t* bits = data_ + kHeaderBytes;
    if (dead) {
      bits[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    } else {
      bits[i / 8] &= static_cast<uint8_t>(~(1u << (i % 8)));
    }
  }

  /// Index of the first entry with entry.key >= key (== count() if none).
  uint32_t LeafLowerBound(Key key) const;

  /// Index of the first *live* (non-tombstoned) entry with exactly `key`,
  /// or -1.
  int32_t LeafFindLive(Key key) const;

  /// Inserts (key, value) keeping sort order. Returns false when full.
  /// Duplicate keys are allowed and inserted after existing equals.
  bool LeafInsert(Key key, Value value) const;

  /// Marks the first live entry with `key` as deleted. Returns false when
  /// no live match exists in this page.
  bool LeafMarkDeleted(Key key) const;

  /// Overwrites the value of the first live entry with `key`. Returns
  /// false when no live match exists in this page.
  bool LeafUpdateFirst(Key key, Value value) const;

  /// Appends the values of all live entries with `key` to `out`; returns
  /// the number appended. `out` may be null (count only).
  uint32_t LeafCollect(Key key, std::vector<Value>* out) const;

  /// Counts the live entries with lo <= key < hi and, when `out` is
  /// non-null, appends them to it in page order. Returns 0 when lo >= hi.
  /// Range scans call this on every leaf they visit, so it binary-searches
  /// only a bound that falls inside the page and counts tombstones a
  /// bitmap word at a time.
  uint32_t LeafCollectLive(Key lo, Key hi, std::vector<KV>* out) const;

  /// Physically removes tombstoned entries (epoch GC). Returns the number
  /// of entries reclaimed.
  uint32_t LeafCompact() const;

  /// Moves the upper half of this (full) leaf into `right` (an initialised
  /// empty leaf) and fixes both fences. Returns the separator: the first
  /// key of `right`. The caller links `right` into the sibling chain by
  /// setting this->right_sibling = right_raw beforehand or afterwards.
  Key SplitLeafInto(PageView right, uint64_t right_raw) const;

  // ---- Inner operations ------------------------------------------------------

  Key* inner_keys() const {
    return reinterpret_cast<Key*>(data_ + kHeaderBytes);
  }
  uint64_t* inner_children() const {
    return reinterpret_cast<uint64_t*>(data_ + kHeaderBytes +
                                       8ull * inner_capacity());
  }

  /// Child raw pointer to descend for `key`. Precondition: key < high_key
  /// (otherwise callers must chase the right sibling first, B-link rule).
  uint64_t InnerChildFor(Key key) const {
    return inner_children()[InnerChildIndex(key)];
  }

  /// Index of the child InnerChildFor(key) descends into.
  uint32_t InnerChildIndex(Key key) const;

  /// The upper fence this node promises for child `i`: keys[i], or this
  /// node's own high key for its last child. The child's high_key equals
  /// it unless one of the two pages changed since the other was read.
  Key InnerChildFence(uint32_t i) const {
    return i < count() ? inner_keys()[i] : high_key();
  }

  /// Inserts separator `sep` with right child `child_raw` (the new page
  /// produced by a split of the child left of `sep`). Returns false when
  /// the node is full.
  bool InnerInsert(Key sep, uint64_t child_raw) const;

  /// Splits this (full) inner node, promoting the middle key: the promoted
  /// separator is returned and appears in neither half.
  Key SplitInnerInto(PageView right, uint64_t right_raw) const;

  // ---- Head-node operations ---------------------------------------------------

  uint64_t* head_ptrs() const {
    return reinterpret_cast<uint64_t*>(data_ + kHeaderBytes);
  }

 private:
  uint8_t* data_;
  uint32_t page_size_;
};

}  // namespace namtree::btree

#endif  // NAMTREE_BTREE_PAGE_H_
