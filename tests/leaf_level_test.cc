// Direct tests of the fine-grained leaf level: chain building with head
// nodes, one-sided search/insert/delete at chain granularity, prefetching
// scans, compaction, and chain accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "index/leaf_level.h"
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

constexpr uint32_t kPage = 256;

rdma::FabricConfig Config() {
  rdma::FabricConfig config;
  config.num_memory_servers = 4;
  return config;
}

IndexConfig MakeIndexConfig(uint32_t interval) {
  IndexConfig config;
  config.page_size = kPage;
  config.head_node_interval = interval;
  return config;
}

std::vector<KV> MakeData(uint64_t n) {
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 2, i});
  return data;
}

TEST(LeafLevelTest, BuildChainsLeavesAcrossServers) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult result;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(1000),
                               MakeIndexConfig(0), &result)
                  .ok());
  ASSERT_FALSE(result.leaf_refs.empty());
  // Round-robin placement over 4 servers.
  EXPECT_EQ(rdma::RemotePtr(result.leaf_refs[0].raw_ptr).server_id(), 0u);
  EXPECT_EQ(rdma::RemotePtr(result.leaf_refs[1].raw_ptr).server_id(), 1u);
  EXPECT_EQ(rdma::RemotePtr(result.leaf_refs[2].raw_ptr).server_id(), 2u);
  // Low keys ascend strictly.
  for (size_t i = 1; i < result.leaf_refs.size(); ++i) {
    EXPECT_LT(result.leaf_refs[i - 1].low, result.leaf_refs[i].low);
  }
}

TEST(LeafLevelTest, HeadNodesAppearEveryInterval) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult result;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(1000),
                               MakeIndexConfig(4), &result)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Count {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first, uint64_t* pages,
                     uint64_t* live) {
      *pages = co_await LeafLevel::CountChain(ops, first, live, nullptr);
    }
  };
  uint64_t pages = 0;
  uint64_t live = 0;
  Spawn(cluster.simulator(),
        Count::Go(RemoteOps(ctx), result.first, &pages, &live));
  cluster.simulator().Run();

  const uint64_t leaves = result.leaf_refs.size();
  const uint64_t heads = pages - leaves;
  EXPECT_EQ(live, 1000u);
  // One head after every 4th leaf (except past the end).
  EXPECT_NEAR(static_cast<double>(heads),
              static_cast<double>(leaves) / 4.0, 2.0);
}

Task<> SearchKeys(RemoteOps ops, rdma::RemotePtr start,
                  std::vector<Key> keys, std::vector<LookupResult>* out) {
  for (Key k : keys) {
    out->push_back(co_await LeafLevel::SearchChain(ops, start, k, nullptr, {}));
  }
}

TEST(LeafLevelTest, SearchChainChasesFromAnyStartingLeaf) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult result;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(500),
                               MakeIndexConfig(4), &result)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);
  // Start at the FIRST leaf and search keys that live far to the right:
  // the B-link chase (through head nodes) must find them.
  std::vector<LookupResult> results;
  Spawn(cluster.simulator(),
        SearchKeys(RemoteOps(ctx), result.first, {0, 998, 400, 999},
                   &results));
  cluster.simulator().Run();
  EXPECT_TRUE(results[0].found);
  EXPECT_TRUE(results[1].found);
  EXPECT_EQ(results[1].value, 499u);
  EXPECT_TRUE(results[2].found);
  EXPECT_FALSE(results[3].found);  // odd key
}

TEST(LeafLevelTest, InsertSplitReportsSeparator) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult built;
  // One nearly-full leaf (fill 90% of capacity 10 -> 9 entries).
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(9),
                               MakeIndexConfig(0), &built)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Driver {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr start, int n,
                     uint64_t* splits) {
      for (int i = 0; i < n; ++i) {
        LeafLevel::SplitInfo split;
        const Status s = co_await LeafLevel::InsertAt(
            ops, start, static_cast<Key>(i * 2 + 1), 1000 + i, &split,
            /*alloc_server=*/-1, {});
        EXPECT_TRUE(s.ok());
        if (split.split) {
          EXPECT_FALSE(split.right.is_null());
          (*splits)++;
        }
      }
    }
  };
  uint64_t splits = 0;
  Spawn(cluster.simulator(),
        Driver::Go(RemoteOps(ctx), built.first, 30, &splits));
  cluster.simulator().Run();
  EXPECT_GT(splits, 0u);

  // All 9 + 30 entries reachable via the chain.
  uint64_t live = 0;
  struct Count {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first, uint64_t* live) {
      (void)co_await LeafLevel::CountChain(ops, first, live, nullptr);
    }
  };
  Spawn(cluster.simulator(), Count::Go(RemoteOps(ctx), built.first, &live));
  cluster.simulator().Run();
  EXPECT_EQ(live, 39u);
}

TEST(LeafLevelTest, ScanUsesBatchedPrefetch) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult built;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(2000),
                               MakeIndexConfig(8), &built)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Driver {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr start,
                     std::vector<KV>* out, uint64_t* n) {
      *n = co_await LeafLevel::ScanChain(ops, start, 100, 3900, out, nullptr,
                                         {});
    }
  };
  std::vector<KV> out;
  uint64_t n = 0;
  Spawn(cluster.simulator(), Driver::Go(RemoteOps(ctx), built.first, &out,
                                        &n));
  cluster.simulator().Run();
  EXPECT_EQ(n, 1900u);
  ASSERT_EQ(out.size(), 1900u);
  EXPECT_EQ(out.front().key, 100u);
  EXPECT_EQ(out.back().key, 3898u);
  // ~211 leaves scanned in batches of 8 (one signaled head read + one
  // batch per group): round trips must be far below the per-leaf count.
  EXPECT_LT(ctx.round_trips, 110u);
}

TEST(LeafLevelTest, CompactChainReclaimsTombstones) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult built;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(300),
                               MakeIndexConfig(4), &built)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  struct Driver {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first,
                     uint64_t* reclaimed) {
      for (Key k = 0; k < 300; k += 3) {
        EXPECT_TRUE(
            (co_await LeafLevel::DeleteAt(ops, first, k * 2, {})).ok());
      }
      EXPECT_TRUE(
          (co_await LeafLevel::DeleteAt(ops, first, 1, {})).IsNotFound());
      *reclaimed = co_await LeafLevel::CompactChain(ops, first);
    }
  };
  uint64_t reclaimed = 0;
  Spawn(cluster.simulator(),
        Driver::Go(RemoteOps(ctx), built.first, &reclaimed));
  cluster.simulator().Run();
  EXPECT_EQ(reclaimed, 100u);

  uint64_t live = 0;
  uint64_t dead = 0;
  struct Count {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first, uint64_t* live,
                     uint64_t* dead) {
      (void)co_await LeafLevel::CountChain(ops, first, live, dead);
    }
  };
  Spawn(cluster.simulator(),
        Count::Go(RemoteOps(ctx), built.first, &live, &dead));
  cluster.simulator().Run();
  EXPECT_EQ(live, 200u);
  EXPECT_EQ(dead, 0u);
}

TEST(LeafLevelTest, RebuildHeadNodesBypassesStaleHeads) {
  Cluster cluster(Config(), 16 << 20);
  LeafLevel::BuildResult built;
  ASSERT_TRUE(LeafLevel::Build(cluster.fabric(), MakeData(500),
                               MakeIndexConfig(4), &built)
                  .ok());
  ClientContext ctx(0, cluster.fabric(), kPage, 1);

  // Split many leaves (insert into every gap).
  struct Churn {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr first) {
      for (Key k = 0; k < 500; ++k) {
        LeafLevel::SplitInfo split;
        (void)co_await LeafLevel::InsertAt(ops, first, k * 2 + 1, k,
                                           &split, /*alloc_server=*/-1, {});
      }
      (void)co_await LeafLevel::RebuildHeadNodes(ops, first, 4);
    }
  };
  Spawn(cluster.simulator(), Churn::Go(RemoteOps(ctx), built.first));
  cluster.simulator().Run();

  // After the rebuild a fresh scan sees everything, and the prefetch
  // efficiency is restored (few round trips per leaf).
  ClientContext ctx2(1, cluster.fabric(), kPage, 2);
  struct Driver {
    static Task<> Go(RemoteOps ops, rdma::RemotePtr start, uint64_t* n) {
      *n = co_await LeafLevel::ScanChain(ops, start, 0, 1000000, nullptr,
                                         nullptr, {});
    }
  };
  uint64_t n = 0;
  Spawn(cluster.simulator(), Driver::Go(RemoteOps(ctx2), built.first, &n));
  cluster.simulator().Run();
  EXPECT_EQ(n, 1000u);
  const uint64_t leaves = 1000 / 9 + 1;
  EXPECT_LT(ctx2.round_trips, leaves)
      << "rebuilt heads must batch most leaf reads";
}

}  // namespace
}  // namespace namtree::index
