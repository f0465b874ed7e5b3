#include "btree/page.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace namtree::btree {

namespace {

static_assert(std::endian::native == std::endian::little,
              "bit i of the tombstone bitmap is bit i % 64 of word i / 64");

/// Number of set bits with index in [b, e) of the bitmap at `bits`.
uint32_t CountSetBits(const uint8_t* bits, uint32_t b, uint32_t e) {
  uint32_t total = 0;
  for (uint32_t w = b / 64; w * 64 < e; ++w) {
    const uint32_t first = w * 64;
    uint64_t word = 0;
    std::memcpy(&word, bits + w * 8, sizeof(word));
    if (b > first) word &= ~0ull << (b - first);
    if (e - first < 64) word &= (1ull << (e - first)) - 1;
    total += static_cast<uint32_t>(std::popcount(word));
  }
  return total;
}

/// Index of the first of `n` sorted elements whose key is not below `key`
/// (lower bound), branch-free: the loop runs ceil(log2 n) times whatever
/// the data, and each step advances the base by a compare-selected offset
/// instead of jumping on the compare.
template <typename T, typename KeyOf>
uint32_t LowerBound(const T* first, uint32_t n, Key key, KeyOf key_of) {
  if (n == 0) return 0;
  const T* base = first;
  while (n > 1) {
    const uint32_t half = n / 2;
    base = key_of(base[half]) < key ? base + half : base;
    n -= half;
  }
  return static_cast<uint32_t>(base - first) +
         static_cast<uint32_t>(key_of(*base) < key);
}

}  // namespace

void PageView::InitLeaf(Key high_key, uint64_t right_sibling_raw) {
  std::memset(data_, 0, page_size_);
  PageHeader& h = header();
  h.high_key = high_key;
  h.right_sibling = right_sibling_raw;
  h.level = 0;
  assert(leaf_capacity() <= kTombstoneBytes * 8);
}

void PageView::InitInner(uint8_t level, Key high_key,
                         uint64_t right_sibling_raw) {
  assert(level > 0);
  std::memset(data_, 0, page_size_);
  PageHeader& h = header();
  h.high_key = high_key;
  h.right_sibling = right_sibling_raw;
  h.level = level;
}

void PageView::InitHead(uint64_t right_sibling_raw) {
  std::memset(data_, 0, page_size_);
  PageHeader& h = header();
  h.high_key = 0;  // head nodes are pass-through; fences are unused
  h.right_sibling = right_sibling_raw;
  h.level = 0;
  h.flags = kHeadNodeFlag;
}

uint32_t PageView::LeafLowerBound(Key key) const {
  return LowerBound(leaf_entries(), count(), key,
                    [](const KV& kv) { return kv.key; });
}

int32_t PageView::LeafFindLive(Key key) const {
  const KV* entries = leaf_entries();
  const uint32_t n = count();
  for (uint32_t i = LeafLowerBound(key); i < n && entries[i].key == key; ++i) {
    if (!LeafIsTombstoned(i)) return static_cast<int32_t>(i);
  }
  return -1;
}

bool PageView::LeafInsert(Key key, Value value) const {
  const uint32_t n = count();
  if (n >= leaf_capacity()) return false;
  KV* entries = leaf_entries();
  // Insert after existing duplicates: first index with entry.key > key.
  uint32_t pos = LeafLowerBound(key);
  while (pos < n && entries[pos].key == key) pos++;
  // Shift entries and their tombstone bits up by one.
  for (uint32_t i = n; i > pos; --i) {
    entries[i] = entries[i - 1];
    LeafSetTombstone(i, LeafIsTombstoned(i - 1));
  }
  entries[pos] = KV{key, value};
  LeafSetTombstone(pos, false);
  header().count = static_cast<uint16_t>(n + 1);
  return true;
}

bool PageView::LeafMarkDeleted(Key key) const {
  const int32_t i = LeafFindLive(key);
  if (i < 0) return false;
  LeafSetTombstone(static_cast<uint32_t>(i), true);
  return true;
}

bool PageView::LeafUpdateFirst(Key key, Value value) const {
  const int32_t i = LeafFindLive(key);
  if (i < 0) return false;
  leaf_entries()[i].value = value;
  return true;
}

uint32_t PageView::LeafCollect(Key key, std::vector<Value>* out) const {
  const KV* entries = leaf_entries();
  const uint32_t n = count();
  uint32_t found = 0;
  for (uint32_t i = LeafLowerBound(key); i < n && entries[i].key == key;
       ++i) {
    if (LeafIsTombstoned(i)) continue;
    if (out != nullptr) out->push_back(entries[i].value);
    found++;
  }
  return found;
}

uint32_t PageView::LeafCollectLive(Key lo, Key hi,
                                   std::vector<KV>* out) const {
  const uint32_t n = count();
  if (n == 0 || lo >= hi) return 0;
  const KV* entries = leaf_entries();
  // A scan's interior leaves lie wholly inside [lo, hi): the first entry
  // settles the low bound without a search, and the header the high one —
  // a leaf with a right sibling holds no key above its fence, so a fence
  // below `hi` puts every entry below it without reading the last one.
  const uint32_t b = entries[0].key >= lo ? 0 : LeafLowerBound(lo);
  const uint32_t e =
      (right_sibling() != 0 && high_key() < hi) || entries[n - 1].key < hi
          ? n
          : LeafLowerBound(hi);
  if (b >= e) return 0;
  const uint32_t dead = CountSetBits(data_ + kHeaderBytes, b, e);
  if (out != nullptr) {
    if (dead == 0) {
      out->insert(out->end(), entries + b, entries + e);
    } else {
      for (uint32_t i = b; i < e; ++i) {
        if (!LeafIsTombstoned(i)) out->push_back(entries[i]);
      }
    }
  }
  return e - b - dead;
}

uint32_t PageView::LeafCompact() const {
  KV* entries = leaf_entries();
  const uint32_t n = count();
  uint32_t out = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (LeafIsTombstoned(i)) continue;
    entries[out] = entries[i];
    out++;
  }
  for (uint32_t i = 0; i < out; ++i) LeafSetTombstone(i, false);
  for (uint32_t i = out; i < n; ++i) LeafSetTombstone(i, false);
  header().count = static_cast<uint16_t>(out);
  return n - out;
}

Key PageView::SplitLeafInto(PageView right, uint64_t right_raw) const {
  const uint32_t n = count();
  assert(n >= 2);
  KV* entries = leaf_entries();
  // A duplicate run may straddle the separator: the left page is allowed to
  // keep entries equal to its high fence. Lookups use lower-bound inner
  // descent plus the B-link sibling chase, so such entries stay reachable.
  const uint32_t mid = n / 2;

  right.InitLeaf(high_key(), right_sibling());
  KV* rentries = right.leaf_entries();
  const uint32_t moved = n - mid;
  for (uint32_t i = 0; i < moved; ++i) {
    rentries[i] = entries[mid + i];
    right.LeafSetTombstone(i, LeafIsTombstoned(mid + i));
  }
  right.header().count = static_cast<uint16_t>(moved);

  const Key separator = rentries[0].key;
  header().count = static_cast<uint16_t>(mid);
  for (uint32_t i = mid; i < n; ++i) LeafSetTombstone(i, false);
  header().high_key = separator;
  header().right_sibling = right_raw;
  return separator;
}

uint32_t PageView::InnerChildIndex(Key key) const {
  const Key* keys = inner_keys();
  const uint32_t n = count();
  // Lower-bound descent: the first separator >= key routes left of itself,
  // so a lookup for a key equal to a separator first visits the left child
  // (where duplicates of the separator may live) and relies on the B-link
  // sibling chase to move right on a miss.
  return LowerBound(keys, n, key, [](Key k) { return k; });
}

bool PageView::InnerInsert(Key sep, uint64_t child_raw) const {
  const uint32_t n = count();
  if (n >= inner_capacity()) return false;
  Key* keys = inner_keys();
  uint64_t* children = inner_children();
  uint32_t pos = 0;
  while (pos < n && keys[pos] < sep) pos++;
  for (uint32_t i = n; i > pos; --i) keys[i] = keys[i - 1];
  for (uint32_t i = n + 1; i > pos + 1; --i) children[i] = children[i - 1];
  keys[pos] = sep;
  children[pos + 1] = child_raw;
  header().count = static_cast<uint16_t>(n + 1);
  return true;
}

Key PageView::SplitInnerInto(PageView right, uint64_t right_raw) const {
  const uint32_t n = count();
  assert(n >= 3);
  const uint32_t mid = n / 2;
  Key* keys = inner_keys();
  uint64_t* children = inner_children();
  const Key separator = keys[mid];

  right.InitInner(level(), high_key(), right_sibling());
  Key* rkeys = right.inner_keys();
  uint64_t* rchildren = right.inner_children();
  const uint32_t moved = n - mid - 1;  // keys[mid] is promoted
  for (uint32_t i = 0; i < moved; ++i) rkeys[i] = keys[mid + 1 + i];
  for (uint32_t i = 0; i <= moved; ++i) rchildren[i] = children[mid + 1 + i];
  right.header().count = static_cast<uint16_t>(moved);

  header().count = static_cast<uint16_t>(mid);
  header().high_key = separator;
  header().right_sibling = right_raw;
  return separator;
}

}  // namespace namtree::btree
