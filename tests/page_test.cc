// Node-level tests of the shared page format: layout, leaf/inner
// operations, tombstones, splits, and duplicate handling. Parameterized
// over page sizes to sweep the layout math.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "btree/page.h"
#include "btree/types.h"
#include "common/random.h"

namespace namtree::btree {
namespace {

class PageBuffer {
 public:
  explicit PageBuffer(uint32_t page_size) : data_(page_size) {}
  PageView view() {
    return PageView(data_.data(), static_cast<uint32_t>(data_.size()));
  }

 private:
  std::vector<uint8_t> data_;
};

TEST(PageLayoutTest, HeaderIs32Bytes) {
  EXPECT_EQ(sizeof(PageHeader), 32u);
  EXPECT_EQ(kVersionOffset, 0u);
}

TEST(PageLayoutTest, CapacitiesForPaperPageSize) {
  // P=1024: leaf (1024-32-64)/16 = 58, inner (1024-40)/16 = 61.
  EXPECT_EQ(PageView::LeafCapacity(1024), 58u);
  EXPECT_EQ(PageView::InnerKeyCapacity(1024), 61u);
  EXPECT_EQ(PageView::HeadCapacity(1024), 124u);
}

class PageSizeTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, PageSizeTest,
                         ::testing::Values(256u, 512u, 1024u, 2048u, 4096u,
                                           8192u));

TEST_P(PageSizeTest, LeafCapacityFitsTombstoneBitmap) {
  const uint32_t cap = PageView::LeafCapacity(GetParam());
  EXPECT_GT(cap, 0u);
  EXPECT_LE(cap, PageView::kTombstoneBytes * 8);
  // Entries must fit in the page.
  EXPECT_LE(PageView::kHeaderBytes + PageView::kTombstoneBytes +
                cap * sizeof(KV),
            GetParam());
}

TEST_P(PageSizeTest, InnerLayoutFits) {
  const uint32_t cap = PageView::InnerKeyCapacity(GetParam());
  EXPECT_GT(cap, 0u);
  EXPECT_LE(PageView::kHeaderBytes + 8u * cap + 8u * (cap + 1), GetParam());
}

TEST_P(PageSizeTest, LeafInsertKeepsSortedOrder) {
  PageBuffer buf(GetParam());
  PageView leaf = buf.view();
  leaf.InitLeaf(kInfinityKey, 0);
  Rng rng(7);
  std::vector<Key> inserted;
  while (leaf.count() < leaf.leaf_capacity()) {
    const Key k = rng.NextBelow(10000);
    ASSERT_TRUE(leaf.LeafInsert(k, k * 2));
    inserted.push_back(k);
  }
  EXPECT_FALSE(leaf.LeafInsert(1, 1)) << "full leaf must reject";
  for (uint32_t i = 1; i < leaf.count(); ++i) {
    EXPECT_LE(leaf.leaf_entries()[i - 1].key, leaf.leaf_entries()[i].key);
  }
  for (Key k : inserted) {
    const int32_t idx = leaf.LeafFindLive(k);
    ASSERT_GE(idx, 0);
    EXPECT_EQ(leaf.leaf_entries()[idx].key, k);
  }
}

TEST(PageTest, LeafLowerBoundSemantics) {
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  leaf.InitLeaf(kInfinityKey, 0);
  for (Key k : {10, 20, 20, 30}) leaf.LeafInsert(k, k);
  EXPECT_EQ(leaf.LeafLowerBound(5), 0u);
  EXPECT_EQ(leaf.LeafLowerBound(10), 0u);
  EXPECT_EQ(leaf.LeafLowerBound(15), 1u);
  EXPECT_EQ(leaf.LeafLowerBound(20), 1u);
  EXPECT_EQ(leaf.LeafLowerBound(21), 3u);
  EXPECT_EQ(leaf.LeafLowerBound(30), 3u);
  EXPECT_EQ(leaf.LeafLowerBound(31), 4u);
}

TEST(PageTest, TombstonesHideEntriesAndCompactRemovesThem) {
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  leaf.InitLeaf(kInfinityKey, 0);
  for (Key k = 0; k < 10; ++k) leaf.LeafInsert(k, k + 100);
  EXPECT_TRUE(leaf.LeafMarkDeleted(3));
  EXPECT_TRUE(leaf.LeafMarkDeleted(7));
  EXPECT_EQ(leaf.LeafFindLive(3), -1);
  EXPECT_EQ(leaf.LeafFindLive(7), -1);
  EXPECT_GE(leaf.LeafFindLive(4), 0);
  EXPECT_FALSE(leaf.LeafMarkDeleted(3)) << "double delete must miss";
  EXPECT_EQ(leaf.LeafCompact(), 2u);
  EXPECT_EQ(leaf.count(), 8u);
  EXPECT_EQ(leaf.LeafFindLive(3), -1);
  for (Key k : {0, 1, 2, 4, 5, 6, 8, 9}) {
    const int32_t idx = leaf.LeafFindLive(k);
    ASSERT_GE(idx, 0) << "key " << k;
    EXPECT_EQ(leaf.leaf_entries()[idx].value, k + 100);
  }
}

TEST(PageTest, TombstoneBitsFollowShiftedEntries) {
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  leaf.InitLeaf(kInfinityKey, 0);
  for (Key k : {10, 30, 50}) leaf.LeafInsert(k, k);
  leaf.LeafMarkDeleted(30);
  // Inserting 20 shifts 30 and 50 up; the tombstone must follow 30.
  leaf.LeafInsert(20, 20);
  EXPECT_EQ(leaf.LeafFindLive(30), -1);
  EXPECT_GE(leaf.LeafFindLive(20), 0);
  EXPECT_GE(leaf.LeafFindLive(50), 0);
}

TEST(PageTest, DuplicateOnlyFirstLiveIsDeleted) {
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  leaf.InitLeaf(kInfinityKey, 0);
  leaf.LeafInsert(5, 1);
  leaf.LeafInsert(5, 2);
  leaf.LeafInsert(5, 3);
  EXPECT_TRUE(leaf.LeafMarkDeleted(5));
  int32_t idx = leaf.LeafFindLive(5);
  ASSERT_GE(idx, 0);
  EXPECT_TRUE(leaf.LeafMarkDeleted(5));
  EXPECT_TRUE(leaf.LeafMarkDeleted(5));
  EXPECT_FALSE(leaf.LeafMarkDeleted(5));
}

TEST(PageTest, SplitLeafDistributesEntriesAndFixesFences) {
  PageBuffer left_buf(1024);
  PageBuffer right_buf(1024);
  PageView left = left_buf.view();
  left.InitLeaf(777, 0xABCD);
  const uint32_t cap = left.leaf_capacity();
  for (uint32_t i = 0; i < cap; ++i) left.LeafInsert(i * 2, i);

  const Key sep = left.SplitLeafInto(right_buf.view(), 0x1111);
  PageView right = right_buf.view();

  EXPECT_EQ(left.count() + right.count(), cap);
  EXPECT_EQ(left.high_key(), sep);
  EXPECT_EQ(left.right_sibling(), 0x1111u);
  EXPECT_EQ(right.high_key(), 777u);
  EXPECT_EQ(right.right_sibling(), 0xABCDu);
  EXPECT_EQ(right.leaf_entries()[0].key, sep);
  // All left keys < sep, all right keys >= sep.
  for (uint32_t i = 0; i < left.count(); ++i) {
    EXPECT_LT(left.leaf_entries()[i].key, sep);
  }
  for (uint32_t i = 0; i < right.count(); ++i) {
    EXPECT_GE(right.leaf_entries()[i].key, sep);
  }
}

TEST(PageTest, SplitLeafCarriesTombstones) {
  PageBuffer left_buf(1024);
  PageBuffer right_buf(1024);
  PageView left = left_buf.view();
  left.InitLeaf(kInfinityKey, 0);
  const uint32_t cap = left.leaf_capacity();
  for (uint32_t i = 0; i < cap; ++i) left.LeafInsert(i, i);
  left.LeafMarkDeleted(cap - 1);  // lands in the right half
  left.LeafMarkDeleted(0);        // stays in the left half
  left.SplitLeafInto(right_buf.view(), 0);
  PageView right = right_buf.view();
  EXPECT_EQ(left.LeafFindLive(0), -1);
  EXPECT_EQ(right.LeafFindLive(cap - 1), -1);
  EXPECT_GE(right.LeafFindLive(cap - 2), 0);
}

TEST(PageTest, InnerChildForUsesLowerBoundDescent) {
  PageBuffer buf(1024);
  PageView inner = buf.view();
  inner.InitInner(1, kInfinityKey, 0);
  // children: c0 | 10 | c1 | 20 | c2
  inner.inner_children()[0] = 100;
  inner.InnerInsert(10, 101);
  inner.InnerInsert(20, 102);
  EXPECT_EQ(inner.InnerChildFor(5), 100u);
  EXPECT_EQ(inner.InnerChildFor(9), 100u);
  // Lower-bound: a key equal to a separator descends LEFT of it.
  EXPECT_EQ(inner.InnerChildFor(10), 100u);
  EXPECT_EQ(inner.InnerChildFor(11), 101u);
  EXPECT_EQ(inner.InnerChildFor(20), 101u);
  EXPECT_EQ(inner.InnerChildFor(25), 102u);
}

TEST(PageTest, InnerInsertMaintainsSeparatorOrder) {
  PageBuffer buf(1024);
  PageView inner = buf.view();
  inner.InitInner(1, kInfinityKey, 0);
  inner.inner_children()[0] = 1;
  Rng rng(3);
  std::vector<Key> seps;
  while (inner.count() < inner.inner_capacity()) {
    const Key sep = rng.NextBelow(100000);
    ASSERT_TRUE(inner.InnerInsert(sep, sep + 1));
    seps.push_back(sep);
  }
  EXPECT_FALSE(inner.InnerInsert(1, 2));
  for (uint32_t i = 1; i < inner.count(); ++i) {
    EXPECT_LE(inner.inner_keys()[i - 1], inner.inner_keys()[i]);
  }
  // Each separator's right child must be the pointer inserted with it.
  std::sort(seps.begin(), seps.end());
  for (uint32_t i = 0; i < inner.count(); ++i) {
    EXPECT_EQ(inner.inner_keys()[i], seps[i]);
  }
}

TEST(PageTest, SplitInnerPromotesMiddleKey) {
  PageBuffer left_buf(1024);
  PageBuffer right_buf(1024);
  PageView left = left_buf.view();
  left.InitInner(2, 999999, 0xBEEF);
  left.inner_children()[0] = 1000;
  const uint32_t cap = left.inner_capacity();
  for (uint32_t i = 0; i < cap; ++i) left.InnerInsert((i + 1) * 10, i + 1);

  const Key promoted = left.SplitInnerInto(right_buf.view(), 0x2222);
  PageView right = right_buf.view();

  // The promoted key is in neither half.
  for (uint32_t i = 0; i < left.count(); ++i) {
    EXPECT_LT(left.inner_keys()[i], promoted);
  }
  for (uint32_t i = 0; i < right.count(); ++i) {
    EXPECT_GT(right.inner_keys()[i], promoted);
  }
  EXPECT_EQ(left.count() + right.count() + 1, cap);
  EXPECT_EQ(left.high_key(), promoted);
  EXPECT_EQ(left.right_sibling(), 0x2222u);
  EXPECT_EQ(right.high_key(), 999999u);
  EXPECT_EQ(right.right_sibling(), 0xBEEFu);
  EXPECT_EQ(right.level(), 2);
  // Child counts: left has count+1 children, right has count+1 children.
  EXPECT_EQ(right.inner_children()[0], cap / 2 + 1u);
}

TEST(PageTest, HeadNodeLayout) {
  PageBuffer buf(1024);
  PageView head = buf.view();
  head.InitHead(0x42);
  EXPECT_TRUE(head.is_head());
  EXPECT_FALSE(head.is_leaf());
  EXPECT_EQ(head.right_sibling(), 0x42u);
  for (uint32_t i = 0; i < head.head_capacity(); ++i) {
    head.head_ptrs()[i] = i + 1;
  }
  head.header().count = static_cast<uint16_t>(head.head_capacity());
  EXPECT_EQ(head.head_ptrs()[head.head_capacity() - 1],
            head.head_capacity());
}

// ---- Fence-predicate boundary regressions ---------------------------------
// The inclusive/exclusive fence contract lives in PageView::NeedsChase
// (page.h); every descent in the repo routes through it. These tests pin
// the boundary cases that were historically re-derived inconsistently at
// each hand-rolled chase site.

TEST(FencePredicateTest, InnerCoversItsFenceKey) {
  // Inner nodes cover [low, high_key] INCLUSIVE: a key equal to the fence
  // is a separator-equal key, and lower-bound descent sends it LEFT so
  // straddling duplicates stay reachable. Only key > fence chases.
  PageBuffer buf(1024);
  PageView inner = buf.view();
  inner.InitInner(1, /*high_key=*/100, /*right_sibling=*/0x1234);
  EXPECT_TRUE(inner.Covers(99));
  EXPECT_TRUE(inner.Covers(100)) << "fence key itself descends here";
  EXPECT_FALSE(inner.NeedsChase(100));
  EXPECT_TRUE(inner.NeedsChase(101));
  EXPECT_FALSE(inner.Covers(101));
}

TEST(FencePredicateTest, LeafChasesAtItsFenceKey) {
  // Leaves cover [low, high_key) EXCLUSIVE: an entry equal to the fence
  // lives in the right sibling (SplitLeafInto moves sep..* right), so
  // key >= fence chases. Callers inspect leaf content BEFORE consulting
  // NeedsChase, which keeps duplicate runs straddling the fence visible.
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  leaf.InitLeaf(/*high_key=*/100, /*right_sibling=*/0x1234);
  EXPECT_TRUE(leaf.Covers(99));
  EXPECT_TRUE(leaf.NeedsChase(100)) << "fence key lives in the sibling";
  EXPECT_FALSE(leaf.Covers(100));
  EXPECT_TRUE(leaf.NeedsChase(101));
}

TEST(FencePredicateTest, SplitFencesAgreeWithPredicate) {
  // After a real split, the separator must chase on the left half and be
  // covered by the right half — for both node kinds.
  PageBuffer left_buf(1024);
  PageBuffer right_buf(1024);
  PageView left = left_buf.view();
  left.InitLeaf(kInfinityKey, 0);
  for (uint32_t i = 0; i < left.leaf_capacity(); ++i) {
    left.LeafInsert(i * 2, i);
  }
  const Key sep = left.SplitLeafInto(right_buf.view(), 0x2222);
  PageView right = right_buf.view();
  EXPECT_TRUE(left.NeedsChase(sep));
  EXPECT_TRUE(left.Covers(sep - 1));
  EXPECT_TRUE(right.Covers(sep));

  PageBuffer ileft_buf(1024);
  PageBuffer iright_buf(1024);
  PageView ileft = ileft_buf.view();
  ileft.InitInner(1, kInfinityKey, 0);
  ileft.inner_children()[0] = 1;
  for (uint32_t i = 0; i < ileft.inner_capacity(); ++i) {
    ileft.InnerInsert((i + 1) * 10, i + 2);
  }
  const Key promoted = ileft.SplitInnerInto(iright_buf.view(), 0x3333);
  PageView iright = iright_buf.view();
  // Inner: the promoted key itself still descends on the LEFT half
  // (inclusive fence); only keys above it chase.
  EXPECT_TRUE(ileft.Covers(promoted));
  EXPECT_TRUE(ileft.NeedsChase(promoted + 1));
  EXPECT_TRUE(iright.Covers(promoted + 1));
}

TEST(FencePredicateTest, HeadNodeChasesThroughForEveryKey) {
  // Head nodes carry high_key == 0 and exist only to route scans to the
  // real chain; every key chases through to the right sibling.
  PageBuffer buf(1024);
  PageView head = buf.view();
  head.InitHead(/*right_sibling=*/0x42);
  EXPECT_TRUE(head.NeedsChase(0));
  EXPECT_TRUE(head.NeedsChase(1));
  EXPECT_TRUE(head.NeedsChase(kInfinityKey));
  EXPECT_FALSE(head.Covers(7));
}

TEST(FencePredicateTest, DrainedLeafChasesThroughForEveryKey) {
  // GC rebalancing drains a leaf by setting high_key = 0 while keeping
  // the sibling link: the empty range [low, 0) covers nothing, so every
  // descent passes through to the survivor on the right.
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  leaf.InitLeaf(/*high_key=*/0, /*right_sibling=*/0x55);
  EXPECT_TRUE(leaf.NeedsChase(0));
  EXPECT_TRUE(leaf.NeedsChase(kInfinityKey));
}

TEST(FencePredicateTest, RightmostPageNeverChases) {
  // right_sibling == 0 terminates the chain: the rightmost page covers
  // everything upward regardless of its fence, for both node kinds —
  // even the kInfinityKey fence value itself.
  PageBuffer leaf_buf(1024);
  PageView leaf = leaf_buf.view();
  leaf.InitLeaf(kInfinityKey, /*right_sibling=*/0);
  EXPECT_FALSE(leaf.NeedsChase(kInfinityKey));
  EXPECT_TRUE(leaf.Covers(kInfinityKey));

  PageBuffer inner_buf(1024);
  PageView inner = inner_buf.view();
  inner.InitInner(1, /*high_key=*/100, /*right_sibling=*/0);
  // Degenerate but defensive: no sibling means no chase even above the
  // fence (a descent here inspects content instead of walking off chain).
  EXPECT_FALSE(inner.NeedsChase(101));
  EXPECT_TRUE(inner.Covers(kInfinityKey));
}

// Property sweep: random insert/delete sequences against a reference
// multimap, at node granularity.
class LeafPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, LeafPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST_P(LeafPropertyTest, MatchesReferenceModel) {
  PageBuffer buf(512);
  PageView leaf = buf.view();
  leaf.InitLeaf(kInfinityKey, 0);
  std::multimap<Key, Value> reference;
  Rng rng(GetParam());

  for (int step = 0; step < 2000; ++step) {
    const Key k = rng.NextBelow(40);
    const double action = rng.NextDouble();
    if (action < 0.5) {
      const Value v = rng.Next();
      if (leaf.LeafInsert(k, v)) {
        reference.emplace(k, v);
      } else {
        EXPECT_EQ(leaf.count(), leaf.leaf_capacity());
        leaf.LeafCompact();
        // Rebuild the reference without the tombstoned entries: compaction
        // preserves exactly the live ones, which the model already tracks.
      }
    } else if (action < 0.75) {
      const bool deleted = leaf.LeafMarkDeleted(k);
      auto it = reference.find(k);
      EXPECT_EQ(deleted, it != reference.end());
      if (it != reference.end()) reference.erase(it);
    } else {
      const bool found = leaf.LeafFindLive(k) >= 0;
      EXPECT_EQ(found, reference.count(k) > 0) << "key " << k;
    }
  }
}

// ---- LeafCollectLive against the per-entry scan loop ------------------------

// Reference: the loop range scans ran before LeafCollectLive, one lower
// bound and one tombstone probe per entry.
uint32_t CollectLiveByEntry(PageView leaf, Key lo, Key hi,
                            std::vector<KV>* out) {
  const KV* entries = leaf.leaf_entries();
  uint32_t found = 0;
  for (uint32_t i = leaf.LeafLowerBound(lo); i < leaf.count(); ++i) {
    if (entries[i].key >= hi) break;
    if (leaf.LeafIsTombstoned(i)) continue;
    if (out != nullptr) out->push_back(entries[i]);
    found++;
  }
  return found;
}

// Counts and appended rows (after a sentinel already in the vector) must
// match the reference, and the count-only call must return the same count.
void ExpectCollectMatches(PageView leaf, Key lo, Key hi) {
  SCOPED_TRACE(::testing::Message() << "range [" << lo << ", " << hi
                                    << ") over " << leaf.count()
                                    << " entries");
  const KV sentinel{kInfinityKey - 1, 7};
  std::vector<KV> want{sentinel};
  std::vector<KV> got{sentinel};
  const uint32_t count = CollectLiveByEntry(leaf, lo, hi, &want);
  EXPECT_EQ(leaf.LeafCollectLive(lo, hi, &got), count);
  EXPECT_EQ(got, want);
  EXPECT_EQ(leaf.LeafCollectLive(lo, hi, nullptr), count);
}

// Writes `keys` (sorted here) as the leaf's entries and tombstones each
// with probability `dead`.
void FillLeaf(PageView leaf, std::vector<Key> keys, double dead, Rng& rng) {
  std::sort(keys.begin(), keys.end());
  leaf.InitLeaf(kInfinityKey, 0);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    leaf.leaf_entries()[i] = KV{keys[i], rng.Next()};
    leaf.LeafSetTombstone(i, rng.NextBool(dead));
  }
  leaf.header().count = static_cast<uint16_t>(keys.size());
}

class LeafCollectLiveSizeTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, LeafCollectLiveSizeTest,
                         ::testing::Values(512u, 1024u, 4096u, 8192u));

TEST_P(LeafCollectLiveSizeTest, MatchesPerEntryLoopOnRandomLeaves) {
  PageBuffer buf(GetParam());
  PageView leaf = buf.view();
  const uint32_t cap = leaf.leaf_capacity();
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const uint32_t n = static_cast<uint32_t>(rng.NextBelow(cap + 1));
    // Narrow key domains give long duplicate runs, wide ones distinct keys.
    const Key domain = rng.NextBool(0.5) ? n / 4 + 1 : 4ull * n + 1;
    constexpr double kDeadShares[] = {0.0, 0.02, 0.5, 1.0};
    const double dead = kDeadShares[round % 4];
    std::vector<Key> keys;
    for (uint32_t i = 0; i < n; ++i) keys.push_back(rng.NextBelow(domain));
    FillLeaf(leaf, keys, dead, rng);
    for (int q = 0; q < 40; ++q) {
      const Key lo = rng.NextBelow(domain + 2);
      const Key hi = rng.NextBelow(domain + 2);
      ExpectCollectMatches(leaf, lo, hi);
      // Bounds on existing keys: both ends sit on duplicate runs.
      if (n > 0) {
        ExpectCollectMatches(leaf, keys[rng.NextBelow(n)],
                             keys[rng.NextBelow(n)]);
      }
    }
    ExpectCollectMatches(leaf, 0, kInfinityKey);
  }
}

TEST_P(LeafCollectLiveSizeTest, EmptyPageAndEmptyRangesCollectNothing) {
  PageBuffer buf(GetParam());
  PageView leaf = buf.view();
  leaf.InitLeaf(kInfinityKey, 0);
  std::vector<KV> out;
  EXPECT_EQ(leaf.LeafCollectLive(0, kInfinityKey, &out), 0u);
  EXPECT_TRUE(out.empty());

  Rng rng(1);
  std::vector<Key> keys;
  for (Key k = 0; k < leaf.leaf_capacity(); ++k) keys.push_back(k * 2);
  FillLeaf(leaf, keys, 0.0, rng);
  for (const auto& [lo, hi] : std::vector<std::pair<Key, Key>>{
           {10, 10}, {11, 10}, {kInfinityKey, 0}, {0, 0}}) {
    EXPECT_EQ(leaf.LeafCollectLive(lo, hi, &out), 0u);
    ExpectCollectMatches(leaf, lo, hi);
  }
  EXPECT_TRUE(out.empty());
}

TEST(LeafCollectLiveTest, TombstonesOnBitmapWordBoundaries) {
  PageBuffer buf(4096);
  PageView leaf = buf.view();
  const uint32_t cap = leaf.leaf_capacity();
  ASSERT_GT(cap, 192u) << "the bitmap must span several 64-bit words";
  Rng rng(2);
  std::vector<Key> keys;
  for (Key k = 0; k < cap; ++k) keys.push_back(k * 2);
  FillLeaf(leaf, keys, 0.0, rng);
  for (uint32_t bit : {0u, 63u, 64u, 127u, 128u, cap - 1}) {
    leaf.LeafSetTombstone(bit, true);
  }
  // Every range whose ends fall near a word boundary, by entry index: key
  // 2i is entry i, and odd keys fall between entries.
  for (uint32_t boundary : {0u, 64u, 128u, cap}) {
    const uint32_t first = boundary < 4 ? 0 : boundary - 4;
    for (Key lo = 2 * first; lo <= 2 * (boundary + 4); ++lo) {
      for (Key hi = lo; hi <= 2 * (boundary + 70); ++hi) {
        ExpectCollectMatches(leaf, lo, hi);
      }
    }
  }
}

TEST(LeafCollectLiveTest, DuplicateRunsOnBothBounds) {
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  Rng rng(3);
  FillLeaf(leaf, {10, 20, 20, 20, 30, 30, 30, 40}, 0.0, rng);
  leaf.LeafSetTombstone(2, true);  // a dead 20 inside the lower run
  leaf.LeafSetTombstone(5, true);  // a dead 30 inside the upper run
  EXPECT_EQ(leaf.LeafCollectLive(20, 30, nullptr), 2u);
  EXPECT_EQ(leaf.LeafCollectLive(20, 31, nullptr), 4u);
  for (Key lo : {19u, 20u, 21u, 29u, 30u}) {
    for (Key hi : {20u, 21u, 30u, 31u, 40u, 41u}) {
      ExpectCollectMatches(leaf, lo, hi);
    }
  }
}

// ---- Fence-settled high bound ---------------------------------------------

// Fills an interior leaf: sorted `keys` under fence `high`, with a right
// sibling, as a split leaves it (duplicates of the fence may stay left).
void FillInteriorLeaf(PageView leaf, std::vector<Key> keys, Key high,
                      double dead, Rng& rng) {
  FillLeaf(leaf, std::move(keys), dead, rng);
  leaf.header().high_key = high;
  leaf.header().right_sibling = 0x1234;
}

TEST(LeafCollectLiveTest, FenceSettlesHighBoundOfInteriorLeaf) {
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  Rng rng(4);
  // Duplicates equal to the fence sit at the page's end.
  FillInteriorLeaf(leaf, {10, 20, 30, 40, 40, 40}, 40, 0.0, rng);
  leaf.LeafSetTombstone(4, true);
  // hi above the fence: every entry is below hi, fence duplicates included.
  EXPECT_EQ(leaf.LeafCollectLive(0, 41, nullptr), 5u);
  // hi equal to the fence: the fence's duplicates are excluded.
  EXPECT_EQ(leaf.LeafCollectLive(0, 40, nullptr), 3u);
  for (Key lo : {0u, 10u, 25u, 40u, 41u}) {
    for (Key hi : {39u, 40u, 41u, 100u}) ExpectCollectMatches(leaf, lo, hi);
    ExpectCollectMatches(leaf, lo, kInfinityKey);
  }
}

TEST(LeafCollectLiveTest, RightmostLeafReadsItsLastEntry) {
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  Rng rng(5);
  // No right sibling: the fence promises nothing, so a fence below hi must
  // not settle the bound (keys beyond it are the rightmost leaf's own).
  FillLeaf(leaf, {10, 20, 30, 50, 60}, 0.0, rng);
  leaf.header().high_key = 25;
  EXPECT_EQ(leaf.LeafCollectLive(0, 55, nullptr), 4u);
  for (Key hi : {20u, 26u, 50u, 51u, 61u}) ExpectCollectMatches(leaf, 0, hi);
}

TEST(LeafCollectLiveTest, AllTombstonedInteriorLeafCollectsNothing) {
  PageBuffer buf(1024);
  PageView leaf = buf.view();
  Rng rng(6);
  FillInteriorLeaf(leaf, {10, 20, 20, 30}, 30, 1.0, rng);
  std::vector<KV> out;
  EXPECT_EQ(leaf.LeafCollectLive(0, 100, &out), 0u);
  EXPECT_TRUE(out.empty());
  for (Key hi : {20u, 30u, 31u}) ExpectCollectMatches(leaf, 0, hi);
}

TEST_P(LeafCollectLiveSizeTest, InteriorLeavesMatchPerEntryLoop) {
  PageBuffer buf(GetParam());
  PageView leaf = buf.view();
  const uint32_t cap = leaf.leaf_capacity();
  Rng rng(GetParam() + 11);
  for (int round = 0; round < 100; ++round) {
    const uint32_t n = static_cast<uint32_t>(1 + rng.NextBelow(cap));
    const Key domain = rng.NextBool(0.5) ? n / 4 + 1 : 4ull * n + 1;
    std::vector<Key> keys;
    for (uint32_t i = 0; i < n; ++i) keys.push_back(rng.NextBelow(domain));
    const Key high = *std::max_element(keys.begin(), keys.end()) +
                     (rng.NextBool(0.5) ? 0 : rng.NextBelow(3));
    FillInteriorLeaf(leaf, keys, high, round % 3 == 0 ? 0.0 : 0.3, rng);
    for (Key hi : {high, high + 1, high + 5, kInfinityKey}) {
      ExpectCollectMatches(leaf, rng.NextBelow(domain + 1), hi);
    }
  }
}

// ---- Branch-free searches against std::lower_bound --------------------------

class PageSearchTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, PageSearchTest,
                         ::testing::Values(256u, 512u, 1024u, 4096u));

// Key counts worth a case of their own, then random ones.
std::vector<uint32_t> SearchSizes(uint32_t cap, Rng& rng) {
  std::vector<uint32_t> sizes = {0, 1, 2, 3, cap - 1, cap};
  for (int i = 0; i < 60; ++i) {
    sizes.push_back(static_cast<uint32_t>(rng.NextBelow(cap + 1)));
  }
  return sizes;
}

// Sorted keys with long duplicate runs or none, away from 0 and the
// infinity sentinel so probes below and above every key exist.
std::vector<Key> SearchKeys(uint32_t n, Rng& rng) {
  const Key domain = rng.NextBool(0.5) ? n / 3 + 1 : 16ull * n + 1;
  std::vector<Key> keys;
  for (uint32_t i = 0; i < n; ++i) keys.push_back(100 + rng.NextBelow(domain));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<Key> SearchProbes(const std::vector<Key>& keys, Rng& rng) {
  std::vector<Key> probes = {0, 99, 100, kInfinityKey - 1};
  for (Key k : keys) {
    if (rng.NextBool(0.3)) {
      probes.push_back(k - 1);
      probes.push_back(k);
      probes.push_back(k + 1);
    }
  }
  if (!keys.empty()) {
    probes.push_back(keys.front());
    probes.push_back(keys.back());
    probes.push_back(keys.back() + 1);
  }
  return probes;
}

TEST_P(PageSearchTest, LeafLowerBoundMatchesStdLowerBound) {
  PageBuffer buf(GetParam());
  PageView leaf = buf.view();
  Rng rng(GetParam() * 3 + 1);
  for (const uint32_t n : SearchSizes(leaf.leaf_capacity(), rng)) {
    const std::vector<Key> keys = SearchKeys(n, rng);
    FillLeaf(leaf, keys, 0.2, rng);
    for (const Key probe : SearchProbes(keys, rng)) {
      const auto want = static_cast<uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
      ASSERT_EQ(leaf.LeafLowerBound(probe), want)
          << n << " entries, probe " << probe;
    }
  }
}

TEST_P(PageSearchTest, InnerChildIndexMatchesStdLowerBound) {
  PageBuffer buf(GetParam());
  PageView inner = buf.view();
  Rng rng(GetParam() * 5 + 2);
  for (const uint32_t n : SearchSizes(inner.inner_capacity(), rng)) {
    const std::vector<Key> keys = SearchKeys(n, rng);
    inner.InitInner(1, kInfinityKey, 0);
    std::copy(keys.begin(), keys.end(), inner.inner_keys());
    inner.header().count = static_cast<uint16_t>(n);
    for (const Key probe : SearchProbes(keys, rng)) {
      const auto want = static_cast<uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
      ASSERT_EQ(inner.InnerChildIndex(probe), want)
          << n << " keys, probe " << probe;
    }
  }
}

}  // namespace
}  // namespace namtree::btree
