// Tests for fence validation of the client cache (docs/traversal.md, "Fence
// validation"): cached inner images and leaf routes live until the first
// remote image of a page they routed to disagrees with them, and then
// exactly the stale entry is dropped. Healthy trees must never trip the
// check, not even on ties (a key equal to a separator routes left and
// chases once by design).

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "btree/page.h"
#include "common/random.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "nam/cluster.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using btree::PageView;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

constexpr uint32_t kPageSize = 256;  // 9 entries per bulk-loaded leaf
constexpr uint64_t kKeys = 1200;     // keys 0, 4, 8, ...: gaps for inserts

enum class Design { kFine, kCoarseOneSided, kHybrid };

std::string DesignName(Design design) {
  switch (design) {
    case Design::kFine: return "Fine";
    case Design::kCoarseOneSided: return "CoarseOneSided";
    case Design::kHybrid: return "Hybrid";
  }
  return "?";
}

/// One bulk-loaded, cached deployment on two memory servers with the
/// default cache TTL (no expiry) and no head nodes, so a lookup's round
/// trips are exactly its remote reads (plus the hybrid's find-leaf RPCs).
struct Deployment {
  Design design;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<DistributedIndex> index;

  TraversalEngine::CacheStats Stats() const {
    switch (design) {
      case Design::kFine:
        return static_cast<FineGrainedIndex&>(*index).GetCacheStats();
      case Design::kCoarseOneSided:
        return static_cast<CoarseOneSidedIndex&>(*index).GetCacheStats();
      case Design::kHybrid:
        return static_cast<HybridIndex&>(*index).GetCacheStats();
    }
    return {};
  }

  NodeCache* Cache(uint32_t client) {
    switch (design) {
      case Design::kFine:
        return static_cast<FineGrainedIndex&>(*index).CacheFor(client);
      case Design::kCoarseOneSided:
        return static_cast<CoarseOneSidedIndex&>(*index).CacheFor(client);
      case Design::kHybrid:
        return static_cast<HybridIndex&>(*index).CacheFor(client);
    }
    return nullptr;
  }

  /// The first page of every leaf chain (one per partition for CG1S).
  std::vector<rdma::RemotePtr> Chains() const {
    switch (design) {
      case Design::kFine:
        return {static_cast<FineGrainedIndex&>(*index).first_leaf()};
      case Design::kCoarseOneSided: {
        std::vector<rdma::RemotePtr> chains;
        for (uint32_t s = 0; s < cluster->num_memory_servers(); ++s) {
          chains.push_back(
              static_cast<CoarseOneSidedIndex&>(*index).first_leaf_of(s));
        }
        return chains;
      }
      case Design::kHybrid:
        return {static_cast<HybridIndex&>(*index).first_leaf()};
    }
    return {};
  }

  uint8_t* Page(rdma::RemotePtr ptr) const {
    return cluster->fabric().region(ptr.server_id())->at(ptr.offset());
  }
};

Deployment Deploy(Design design, bool speculative = false) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Deployment d;
  d.design = design;
  d.cluster = std::make_unique<Cluster>(fc, 32 << 20);
  IndexConfig ic;
  ic.page_size = kPageSize;
  ic.head_node_interval = 0;
  ic.client_cache_pages = 4096;
  ic.speculative_descent = speculative;
  switch (design) {
    case Design::kFine:
      d.index = std::make_unique<FineGrainedIndex>(*d.cluster, ic);
      break;
    case Design::kCoarseOneSided:
      d.index = std::make_unique<CoarseOneSidedIndex>(*d.cluster, ic);
      break;
    case Design::kHybrid:
      d.index = std::make_unique<HybridIndex>(*d.cluster, ic);
      break;
  }
  std::vector<KV> data;
  for (uint64_t i = 0; i < kKeys; ++i) data.push_back({i * 4, i});
  EXPECT_TRUE(d.index->BulkLoad(data).ok());
  d.cluster->fabric().SetNumClients(2);
  return d;
}

struct LeafInfo {
  rdma::RemotePtr ptr;
  Key first = 0;
  Key last = 0;
};

/// Host-side walk of a (quiescent) leaf chain: every non-empty leaf.
std::vector<LeafInfo> WalkChain(const Deployment& d, rdma::RemotePtr first) {
  std::vector<LeafInfo> leaves;
  for (rdma::RemotePtr ptr = first; !ptr.is_null();) {
    PageView view(d.Page(ptr), kPageSize);
    if (view.is_leaf() && view.count() > 0) {
      leaves.push_back({ptr, view.leaf_entries()[0].key,
                        view.leaf_entries()[view.count() - 1].key});
    }
    ptr = rdma::RemotePtr(view.right_sibling());
  }
  return leaves;
}

Task<> LookupInto(DistributedIndex& index, ClientContext& ctx, Key key,
                  LookupResult* out) {
  *out = co_await index.Lookup(ctx, key);
}

Task<> InsertInto(DistributedIndex& index, ClientContext& ctx, Key key,
                  Status* out) {
  *out = co_await index.Insert(ctx, key, key);
}

Task<> MultiGetInto(DistributedIndex& index, ClientContext& ctx,
                    std::vector<Key> keys, std::vector<LookupResult>* out) {
  out->resize(keys.size());
  co_await index.MultiGet(ctx, keys, out->data());
}

/// Runs one lookup to completion; returns its round trips.
uint64_t Lookup(Deployment& d, ClientContext& ctx, Key key) {
  const uint64_t before = ctx.round_trips;
  LookupResult result;
  Spawn(d.cluster->simulator(), LookupInto(*d.index, ctx, key, &result));
  d.cluster->simulator().Run();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.found, key % 4 == 0 && key < 4 * kKeys) << "key " << key;
  return ctx.round_trips - before;
}

/// Runs one MultiGet of present keys to completion; returns its round
/// trips.
uint64_t MultiGet(Deployment& d, ClientContext& ctx,
                  const std::vector<Key>& keys) {
  const uint64_t before = ctx.round_trips;
  std::vector<LookupResult> results;
  Spawn(d.cluster->simulator(), MultiGetInto(*d.index, ctx, keys, &results));
  d.cluster->simulator().Run();
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    EXPECT_TRUE(results[i].found) << "key " << keys[i];
  }
  return ctx.round_trips - before;
}

void Insert(Deployment& d, ClientContext& ctx, Key key) {
  Status status;
  Spawn(d.cluster->simulator(), InsertInto(*d.index, ctx, key, &status));
  d.cluster->simulator().Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
}

/// Warms `ctx`'s cache with one lookup of every bulk-loaded key.
void Warm(Deployment& d, ClientContext& ctx) {
  for (uint64_t i = 0; i < kKeys; ++i) (void)Lookup(d, ctx, i * 4);
}

std::set<uint64_t> LruSet(NodeCache* cache) {
  const std::vector<uint64_t> keys = cache->LruKeys();
  return {keys.begin(), keys.end()};
}

TEST(FenceValidationTest, CacheEntriesNeverExpireByDefault) {
  EXPECT_EQ(IndexConfig().client_cache_ttl, 0u);
}

// ---- Tie guard -------------------------------------------------------------

class FenceTieTest
    : public testing::TestWithParam<std::tuple<Design, bool>> {};

TEST_P(FenceTieTest, WarmStaticTreeNeverInvalidates) {
  const auto [design, speculative] = GetParam();
  Deployment d = Deploy(design, speculative);
  ClientContext reader(0, d.cluster->fabric(), kPageSize, 1);

  // Every bulk-loaded key (so every separator: each leaf's first key) plus
  // a uniform sample of the key domain, present and absent keys alike.
  std::vector<Key> probes;
  for (uint64_t i = 0; i < kKeys; ++i) probes.push_back(i * 4);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) probes.push_back(rng.NextBelow(4 * kKeys));
  for (const Key key : probes) (void)Lookup(d, reader, key);

  // Ties: a leaf's first key is routed to the left neighbour and chases
  // once, unless the leaf starts its chain or (hybrid) the key starts a
  // partition, whose server routes it straight to its leaf.
  std::set<Key> ties;
  for (const rdma::RemotePtr chain : d.Chains()) {
    const std::vector<LeafInfo> leaves = WalkChain(d, chain);
    for (size_t l = 1; l < leaves.size(); ++l) ties.insert(leaves[l].first);
  }
  if (design == Design::kHybrid) {
    const Partitioner& parts =
        static_cast<HybridIndex&>(*d.index).partitioner();
    std::erase_if(ties, [&parts](Key key) {
      return parts.ServerFor(key) != parts.ServerFor(key - 1);
    });
  }

  const TraversalEngine::CacheStats before = d.Stats();
  for (const Key key : probes) {
    EXPECT_EQ(Lookup(d, reader, key), ties.count(key) ? 2u : 1u)
        << "key " << key;
  }
  const TraversalEngine::CacheStats after = d.Stats();
  EXPECT_GT(ties.size(), 100u);
  EXPECT_EQ(after.fence_invalidations, 0u) << "a healthy entry was dropped";
  // No entry was dropped, so no page was re-read: the round trips above are
  // exactly those of an unvalidated, never-expiring cache.
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.expirations, 0u);
  EXPECT_GT(after.hits, before.hits);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, FenceTieTest,
    testing::Values(std::make_tuple(Design::kFine, false),
                    std::make_tuple(Design::kFine, true),
                    std::make_tuple(Design::kCoarseOneSided, false),
                    std::make_tuple(Design::kCoarseOneSided, true),
                    std::make_tuple(Design::kHybrid, false)),
    [](const testing::TestParamInfo<FenceTieTest::ParamType>& info) {
      return DesignName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_Speculative" : "");
    });

// ---- Split detection -------------------------------------------------------

class FenceSplitTest : public testing::TestWithParam<Design> {};

TEST_P(FenceSplitTest, LeafSplitDropsExactlyTheStaleEntry) {
  const Design design = GetParam();
  Deployment d = Deploy(design);
  ClientContext reader(0, d.cluster->fabric(), kPageSize, 1);
  ClientContext writer(1, d.cluster->fabric(), kPageSize, 2);
  Warm(d, reader);

  // The writer fills one leaf past its capacity of 10: it splits, and the
  // separator lands in the parent the reader holds a stale image of (or,
  // for the hybrid, behind the reader's stale route).
  const rdma::RemotePtr chain = d.Chains()[0];
  const std::vector<LeafInfo> leaves = WalkChain(d, chain);
  const LeafInfo victim = leaves[5];
  Insert(d, writer, victim.first + 1);
  Insert(d, writer, victim.first + 2);
  ASSERT_EQ(WalkChain(d, chain).size(), leaves.size() + 1);
  const Key probe = victim.last;  // now in the right half

  NodeCache* cache = d.Cache(0);
  const std::set<uint64_t> entries = LruSet(cache);
  const TraversalEngine::CacheStats s0 = d.Stats();

  // 1: the stale entry routes to the left half, whose fence disagrees; the
  //    chase still finds the key, and exactly that entry is dropped.
  EXPECT_EQ(Lookup(d, reader, probe), 2u);
  const TraversalEngine::CacheStats s1 = d.Stats();
  EXPECT_EQ(s1.fence_invalidations - s0.fence_invalidations, 1u);
  std::set<uint64_t> dropped;
  const std::set<uint64_t> remaining = LruSet(cache);
  std::set_difference(entries.begin(), entries.end(), remaining.begin(),
                      remaining.end(), std::inserter(dropped, dropped.end()));
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(remaining.size(), entries.size() - 1);
  if (design == Design::kHybrid) {
    EXPECT_EQ(*dropped.begin(), probe) << "the route, keyed by lookup key";
  } else {
    PageView parent(d.Page(rdma::RemotePtr(*dropped.begin())), kPageSize);
    EXPECT_EQ(parent.level(), 1u);
    const uint64_t* children = parent.inner_children();
    EXPECT_NE(std::find(children, children + parent.count() + 1,
                        victim.ptr.raw()),
              children + parent.count() + 1)
        << "the dropped entry is not the split leaf's parent";
  }

  // 2: the entry is re-read (or the route re-resolved) and leads straight
  //    to the right half: one refresh plus one leaf READ, no chase.
  EXPECT_EQ(Lookup(d, reader, probe), 2u);
  const TraversalEngine::CacheStats s2 = d.Stats();
  EXPECT_EQ(s2.misses - s1.misses, 1u);
  EXPECT_EQ(s2.fence_invalidations, s1.fence_invalidations);

  // 3: warm again: one READ.
  EXPECT_EQ(Lookup(d, reader, probe), 1u);
  const TraversalEngine::CacheStats s3 = d.Stats();
  EXPECT_EQ(s3.misses, s2.misses);
  EXPECT_EQ(s3.fence_invalidations, s2.fence_invalidations);
}

TEST_P(FenceSplitTest, MultiGetAfterSplitDropsTheStaleEntry) {
  const Design design = GetParam();
  Deployment d = Deploy(design);
  ClientContext reader(0, d.cluster->fabric(), kPageSize, 1);
  ClientContext writer(1, d.cluster->fabric(), kPageSize, 2);
  Warm(d, reader);

  const rdma::RemotePtr chain = d.Chains()[0];
  const std::vector<LeafInfo> leaves = WalkChain(d, chain);
  const LeafInfo victim = leaves[5];
  Insert(d, writer, victim.first + 1);
  Insert(d, writer, victim.first + 2);
  ASSERT_EQ(WalkChain(d, chain).size(), leaves.size() + 1);
  // The victim's bulk-loaded keys, which now straddle the split; the
  // reader's cache still predicts all of them into the left half. (Its
  // first key, a tie, is predicted into the left neighbour.)
  std::vector<Key> keys;
  for (Key key = victim.first + 4; key <= victim.last; key += 4) {
    keys.push_back(key);
  }

  NodeCache* cache = d.Cache(0);
  const std::set<uint64_t> entries = LruSet(cache);
  const TraversalEngine::CacheStats s0 = d.Stats();

  // 1: one group walk from the stale prediction: the left half's fence
  //    disagrees, the walk chases into the right half, and the entry that
  //    predicted the group is dropped.
  EXPECT_EQ(MultiGet(d, reader, keys), 2u);
  const TraversalEngine::CacheStats s1 = d.Stats();
  EXPECT_EQ(s1.fence_invalidations - s0.fence_invalidations, 1u);
  std::set<uint64_t> dropped;
  const std::set<uint64_t> remaining = LruSet(cache);
  std::set_difference(entries.begin(), entries.end(), remaining.begin(),
                      remaining.end(), std::inserter(dropped, dropped.end()));
  ASSERT_EQ(dropped.size(), 1u);
  if (design == Design::kHybrid) {
    EXPECT_EQ(*dropped.begin(), keys.back()) << "the group's largest key";
  } else {
    PageView parent(d.Page(rdma::RemotePtr(*dropped.begin())), kPageSize);
    EXPECT_EQ(parent.level(), 1u);
  }

  // 2: the stale state drains: each call drops at most one more entry
  //    (the hybrid holds one stale route per right-half key, and a group
  //    checks only its largest key's), and once a call drops nothing, the
  //    next one reads each half once, plus one chase for the tie: the
  //    right half's first key equals the new separator, so it is predicted
  //    into the left half's group.
  size_t calls = 0;
  for (uint64_t last = s1.fence_invalidations;; ++calls) {
    ASSERT_LT(calls, keys.size()) << "stale entries never drained";
    (void)MultiGet(d, reader, keys);
    const uint64_t now = d.Stats().fence_invalidations;
    EXPECT_LE(now - last, 1u);
    if (now == last) break;
    last = now;
  }
  const Key separator = PageView(d.Page(victim.ptr), kPageSize).high_key();
  const size_t stale_routes = static_cast<size_t>(
      std::count_if(keys.begin(), keys.end(),
                    [separator](Key key) { return key > separator; }));
  EXPECT_EQ(calls, design == Design::kHybrid ? stale_routes - 1 : 0u);
  const TraversalEngine::CacheStats s2 = d.Stats();
  EXPECT_EQ(MultiGet(d, reader, keys), 3u);
  const TraversalEngine::CacheStats s3 = d.Stats();
  EXPECT_EQ(s3.fence_invalidations, s2.fence_invalidations);
  EXPECT_EQ(s3.misses, s2.misses);
}

INSTANTIATE_TEST_SUITE_P(Designs, FenceSplitTest,
                         testing::Values(Design::kFine,
                                         Design::kCoarseOneSided,
                                         Design::kHybrid),
                         [](const testing::TestParamInfo<Design>& info) {
                           return DesignName(info.param);
                         });

TEST(FenceValidationTest, InnerSplitDropsParentThenGrandparent) {
  Deployment d = Deploy(Design::kFine);
  auto& index = static_cast<FineGrainedIndex&>(*d.index);
  ASSERT_EQ(index.root_level(), 2u) << "test assumes root -> L1 -> leaves";
  ClientContext reader(0, d.cluster->fabric(), kPageSize, 1);
  ClientContext writer(1, d.cluster->fabric(), kPageSize, 2);
  Warm(d, reader);

  // A bulk-loaded level-1 node holds 11 of its 13 separators. Splitting
  // its last three leaves adds three: the third splits the node itself,
  // and the promoted key lands in the root.
  PageView root(d.Page(index.root()), kPageSize);
  const rdma::RemotePtr l1(root.inner_children()[5]);
  PageView l1_view(d.Page(l1), kPageSize);
  ASSERT_EQ(l1_view.count(), 11u);
  std::vector<Key> last_firsts;
  for (uint32_t c = l1_view.count() - 2; c <= l1_view.count(); ++c) {
    PageView leaf(d.Page(rdma::RemotePtr(l1_view.inner_children()[c])),
                  kPageSize);
    last_firsts.push_back(leaf.leaf_entries()[0].key);
  }
  const PageView last_leaf(
      d.Page(rdma::RemotePtr(l1_view.inner_children()[l1_view.count()])),
      kPageSize);
  const Key probe = last_leaf.leaf_entries()[last_leaf.count() - 1].key;
  const uint32_t root_count = root.count();
  for (const Key first : last_firsts) {
    Insert(d, writer, first + 1);
    Insert(d, writer, first + 2);
  }
  ASSERT_EQ(root.count(), root_count + 1) << "the level-1 node did not split";

  const TraversalEngine::CacheStats s0 = d.Stats();
  // 1: the stale level-1 image routes to the split leaf's left half; its
  //    fence drops the level-1 entry, and the chase finds the key.
  EXPECT_EQ(Lookup(d, reader, probe), 2u);
  const TraversalEngine::CacheStats s1 = d.Stats();
  EXPECT_EQ(s1.fence_invalidations - s0.fence_invalidations, 1u);
  EXPECT_FALSE(LruSet(d.Cache(0)).count(l1.raw()));
  // 2: the re-read level-1 node is the left half of its own split: its
  //    fence disagrees with the stale root image, which is dropped, and the
  //    chase reaches the right half and then the leaf.
  EXPECT_EQ(Lookup(d, reader, probe), 3u);
  const TraversalEngine::CacheStats s2 = d.Stats();
  EXPECT_EQ(s2.fence_invalidations - s1.fence_invalidations, 1u);
  EXPECT_FALSE(LruSet(d.Cache(0)).count(index.root().raw()));
  // 3: the re-read root routes straight to the right half (cached by the
  //    chase), whose promise the leaf keeps: root READ plus leaf READ.
  EXPECT_EQ(Lookup(d, reader, probe), 2u);
  const TraversalEngine::CacheStats s3 = d.Stats();
  EXPECT_EQ(s3.misses - s2.misses, 1u);
  EXPECT_EQ(s3.fence_invalidations, s2.fence_invalidations);
  // 4: warm again.
  EXPECT_EQ(Lookup(d, reader, probe), 1u);
  EXPECT_EQ(d.Stats().fence_invalidations, s3.fence_invalidations);
}

Task<> DeleteAndCollect(DistributedIndex& index, ClientContext& ctx,
                        std::vector<Key> keys) {
  for (const Key key : keys) {
    EXPECT_TRUE((co_await index.Delete(ctx, key)).ok());
  }
  (void)co_await index.GarbageCollect(ctx);
}

TEST(FenceValidationTest, DrainedLeavesAreNotEvidence) {
  // Epoch rebalancing drains merged leaf pairs in place (zero high fence,
  // rerouted to the absorber) while their parents keep naming them. A
  // drained leaf must not condemn its parent: a re-read parent names it
  // again, so every lookup through it would miss.
  Deployment d = Deploy(Design::kFine);
  ClientContext reader(0, d.cluster->fabric(), kPageSize, 1);
  ClientContext writer(1, d.cluster->fabric(), kPageSize, 2);
  Warm(d, reader);

  // Leave two live keys in each of leaves 10..29: adjacent pairs merge.
  const std::vector<LeafInfo> leaves = WalkChain(d, d.Chains()[0]);
  std::vector<Key> doomed;
  std::vector<Key> kept;
  for (size_t l = 10; l < 30; ++l) {
    for (Key key = leaves[l].first; key <= leaves[l].last; key += 4) {
      (key - leaves[l].first < 8 ? kept : doomed).push_back(key);
    }
  }
  Spawn(d.cluster->simulator(), DeleteAndCollect(*d.index, writer, doomed));
  d.cluster->simulator().Run();
  ASSERT_LT(WalkChain(d, d.Chains()[0]).size(), leaves.size())
      << "nothing was merged";

  for (int pass = 0; pass < 2; ++pass) {
    const TraversalEngine::CacheStats before = d.Stats();
    for (const Key key : kept) {
      LookupResult result;
      Spawn(d.cluster->simulator(), LookupInto(*d.index, reader, key, &result));
      d.cluster->simulator().Run();
      EXPECT_TRUE(result.found) << "key " << key;
    }
    const TraversalEngine::CacheStats after = d.Stats();
    EXPECT_EQ(after.fence_invalidations, 0u);
    EXPECT_EQ(after.misses, before.misses) << "pass " << pass;
  }
}

}  // namespace
}  // namespace namtree::index
