// Integration tests for the distributed index designs (coarse-grained
// two-sided, fine-grained one-sided, hybrid, coarse-grained one-sided)
// running on the simulated NAM cluster: bulk load, point/range queries,
// inserts with splits, updates, deletes with epoch GC, duplicates, skewed
// placement, concurrent clients, and head-node prefetching.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/index.h"
#include "nam/cluster.h"
#include "ycsb/workload.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using btree::Value;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

enum class Design {
  kCoarseRange,
  kCoarseHash,
  kFine,
  kHybrid,
  kCoarseOneSided,
};

std::string DesignName(Design d) {
  switch (d) {
    case Design::kCoarseRange:
      return "CoarseRange";
    case Design::kCoarseHash:
      return "CoarseHash";
    case Design::kFine:
      return "Fine";
    case Design::kHybrid:
      return "Hybrid";
    case Design::kCoarseOneSided:
      return "CoarseOneSided";
  }
  return "?";
}

struct TestRig {
  explicit TestRig(Design design, uint32_t servers = 4,
                 std::vector<double> weights = {},
                 uint32_t page_size = 256)
      : config_template(MakeFabricConfig(servers)),
        cluster(config_template, 64ull << 20) {
    index_config.page_size = page_size;
    index_config.head_node_interval = 4;
    index_config.partition_weights = std::move(weights);
    switch (design) {
      case Design::kCoarseRange:
        index_config.partition = PartitionKind::kRange;
        index = std::make_unique<CoarseGrainedIndex>(cluster, index_config);
        break;
      case Design::kCoarseHash:
        index_config.partition = PartitionKind::kHash;
        index = std::make_unique<CoarseGrainedIndex>(cluster, index_config);
        break;
      case Design::kFine:
        index = std::make_unique<FineGrainedIndex>(cluster, index_config);
        break;
      case Design::kHybrid:
        index_config.partition = PartitionKind::kRange;
        index = std::make_unique<HybridIndex>(cluster, index_config);
        break;
      case Design::kCoarseOneSided:
        index_config.partition = PartitionKind::kRange;
        index = std::make_unique<CoarseOneSidedIndex>(cluster, index_config);
        break;
    }
  }

  ~TestRig() {
    // Whatever the test did, the one-sided lock/version discipline must
    // have been respected end to end.
    EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
        << cluster.fabric().CheckAuditClean().ToString();
  }

  static rdma::FabricConfig MakeFabricConfig(uint32_t servers) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = servers;
    fc.workers_per_server = 4;
    return fc;
  }

  ClientContext MakeClient(uint32_t id, uint64_t seed = 1) {
    return ClientContext(id, cluster.fabric(), index_config.page_size, seed);
  }

  rdma::FabricConfig config_template;
  Cluster cluster;
  IndexConfig index_config;
  std::unique_ptr<DistributedIndex> index;
};

std::vector<KV> MakeData(uint64_t n, Key stride = 2) {
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * stride, i + 1});
  return data;
}

// ---- Single-client driver helpers ------------------------------------------

Task<> LookupMany(DistributedIndex& index, ClientContext& ctx,
                  std::vector<Key> keys, std::vector<LookupResult>* out) {
  for (Key k : keys) {
    out->push_back(co_await index.Lookup(ctx, k));
  }
}

Task<> ScanOne(DistributedIndex& index, ClientContext& ctx, Key lo, Key hi,
               std::vector<KV>* out, uint64_t* count) {
  *count = co_await index.Scan(ctx, lo, hi, out);
}

Task<> InsertMany(DistributedIndex& index, ClientContext& ctx,
                  std::vector<KV> kvs, uint64_t* failures) {
  for (const KV& kv : kvs) {
    if (!(co_await index.Insert(ctx, kv.key, kv.value)).ok()) {
      (*failures)++;
    }
  }
}

Task<> DeleteMany(DistributedIndex& index, ClientContext& ctx,
                  std::vector<Key> keys, std::vector<bool>* ok) {
  for (Key k : keys) {
    ok->push_back((co_await index.Delete(ctx, k)).ok());
  }
}

Task<> GcOnce(DistributedIndex& index, ClientContext& ctx,
              uint64_t* reclaimed) {
  *reclaimed = co_await index.GarbageCollect(ctx);
}

class IndexDesignTest : public ::testing::TestWithParam<Design> {};

INSTANTIATE_TEST_SUITE_P(Designs, IndexDesignTest,
                         ::testing::Values(Design::kCoarseRange,
                                           Design::kCoarseHash, Design::kFine,
                                           Design::kHybrid,
                                           Design::kCoarseOneSided),
                         [](const auto& info) {
                           return DesignName(info.param);
                         });

TEST_P(IndexDesignTest, BulkLoadThenLookup) {
  TestRig setup(GetParam());
  const auto data = MakeData(20000);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());

  auto ctx = setup.MakeClient(0);
  std::vector<Key> probes;
  std::vector<Key> expected_hits;
  for (uint64_t i = 0; i < 20000; i += 97) {
    probes.push_back(i * 2);      // hit
    probes.push_back(i * 2 + 1);  // miss (odd keys absent)
  }
  std::vector<LookupResult> results;
  Spawn(setup.cluster.simulator(),
        LookupMany(*setup.index, ctx, probes, &results));
  setup.cluster.simulator().Run();

  ASSERT_EQ(results.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    const bool should_hit = (probes[i] % 2 == 0);
    EXPECT_EQ(results[i].found, should_hit) << "key " << probes[i];
    if (should_hit) {
      EXPECT_EQ(results[i].value, probes[i] / 2 + 1);
    }
  }
}

TEST_P(IndexDesignTest, ScansMatchReferenceAcrossPartitions) {
  TestRig setup(GetParam());
  const auto data = MakeData(15000, 3);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());
  auto ctx = setup.MakeClient(0);

  struct Range {
    Key lo, hi;
  };
  // Cross-partition ranges (partitions split around multiples of ~11250).
  const std::vector<Range> ranges = {{0, 100},      {2999, 3300},
                                     {11000, 12000}, {0, 45000},
                                     {44990, 45010}, {20000, 20001}};
  for (const Range& r : ranges) {
    std::vector<KV> out;
    uint64_t count = 0;
    Spawn(setup.cluster.simulator(),
          ScanOne(*setup.index, ctx, r.lo, r.hi, &out, &count));
    setup.cluster.simulator().Run();

    std::vector<KV> expected;
    for (const KV& kv : data) {
      if (kv.key >= r.lo && kv.key < r.hi) expected.push_back(kv);
    }
    ASSERT_EQ(count, expected.size())
        << "range [" << r.lo << "," << r.hi << ")";
    ASSERT_EQ(out.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(out[i].key, expected[i].key);
      EXPECT_EQ(out[i].value, expected[i].value);
    }
  }
}

TEST_P(IndexDesignTest, InsertsForceSplitsAndStayVisible) {
  TestRig setup(GetParam());
  const auto data = MakeData(2000, 4);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());
  auto ctx = setup.MakeClient(0);

  // Insert three new keys into every gap region: forces many leaf splits
  // (page size 256 -> leaf capacity 10).
  std::vector<KV> inserts;
  Rng rng(5);
  for (uint64_t i = 0; i < 2000; ++i) {
    inserts.push_back({i * 4 + 1, 100000 + i});
    inserts.push_back({i * 4 + 2, 200000 + i});
    inserts.push_back({i * 4 + 3, 300000 + i});
  }
  // Shuffle to avoid purely monotonic split patterns.
  for (size_t i = inserts.size() - 1; i > 0; --i) {
    std::swap(inserts[i], inserts[rng.NextBelow(i + 1)]);
  }
  uint64_t failures = 0;
  Spawn(setup.cluster.simulator(),
        InsertMany(*setup.index, ctx, inserts, &failures));
  setup.cluster.simulator().Run();
  EXPECT_EQ(failures, 0u);

  // Everything (old + new) must be visible via scan, in order.
  std::vector<KV> out;
  uint64_t count = 0;
  Spawn(setup.cluster.simulator(),
        ScanOne(*setup.index, ctx, 0, 8000, &out, &count));
  setup.cluster.simulator().Run();
  EXPECT_EQ(count, 8000u);
  ASSERT_EQ(out.size(), 8000u);
  for (uint64_t k = 0; k < 8000; ++k) {
    EXPECT_EQ(out[k].key, k) << "missing key after splits";
  }
}

TEST_P(IndexDesignTest, DeleteHidesAndGcReclaims) {
  TestRig setup(GetParam());
  const auto data = MakeData(5000);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());
  auto ctx = setup.MakeClient(0);

  std::vector<Key> to_delete;
  for (uint64_t i = 0; i < 5000; i += 2) to_delete.push_back(i * 2);
  std::vector<bool> ok;
  Spawn(setup.cluster.simulator(),
        DeleteMany(*setup.index, ctx, to_delete, &ok));
  setup.cluster.simulator().Run();
  for (bool b : ok) EXPECT_TRUE(b);

  // Deleted keys miss; others remain.
  std::vector<LookupResult> results;
  Spawn(setup.cluster.simulator(),
        LookupMany(*setup.index, ctx, {0, 4, 2, 6, 9998}, &results));
  setup.cluster.simulator().Run();
  EXPECT_FALSE(results[0].found);
  EXPECT_FALSE(results[1].found);
  EXPECT_TRUE(results[2].found);
  EXPECT_TRUE(results[3].found);
  EXPECT_TRUE(results[4].found);

  // Deleting a missing key reports NotFound.
  std::vector<bool> miss;
  Spawn(setup.cluster.simulator(),
        DeleteMany(*setup.index, ctx, {0}, &miss));
  setup.cluster.simulator().Run();
  EXPECT_FALSE(miss[0]);

  uint64_t reclaimed = 0;
  Spawn(setup.cluster.simulator(), GcOnce(*setup.index, ctx, &reclaimed));
  setup.cluster.simulator().Run();
  EXPECT_EQ(reclaimed, to_delete.size());

  // Post-GC scans still correct.
  uint64_t count = 0;
  Spawn(setup.cluster.simulator(),
        ScanOne(*setup.index, ctx, 0, 20000, nullptr, &count));
  setup.cluster.simulator().Run();
  EXPECT_EQ(count, 5000u - to_delete.size());
}

TEST_P(IndexDesignTest, DuplicateKeysSurviveSplits) {
  TestRig setup(GetParam());
  const auto data = MakeData(500, 10);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());
  auto ctx = setup.MakeClient(0);

  // 60 duplicates of one key (leaf capacity is 10).
  std::vector<KV> dupes;
  for (uint64_t i = 0; i < 60; ++i) dupes.push_back({2500, 7000 + i});
  uint64_t failures = 0;
  Spawn(setup.cluster.simulator(),
        InsertMany(*setup.index, ctx, dupes, &failures));
  setup.cluster.simulator().Run();
  EXPECT_EQ(failures, 0u);

  std::vector<KV> out;
  uint64_t count = 0;
  Spawn(setup.cluster.simulator(),
        ScanOne(*setup.index, ctx, 2500, 2501, &out, &count));
  setup.cluster.simulator().Run();
  ASSERT_EQ(count, 61u);  // bulk-loaded entry + 60 duplicates
  std::set<Value> values;
  for (const KV& kv : out) values.insert(kv.value);
  EXPECT_EQ(values.size(), 61u);

  // Point lookups still find neighbours around the duplicate blob.
  std::vector<LookupResult> results;
  Spawn(setup.cluster.simulator(),
        LookupMany(*setup.index, ctx, {2490, 2500, 2510}, &results));
  setup.cluster.simulator().Run();
  EXPECT_TRUE(results[0].found);
  EXPECT_TRUE(results[1].found);
  EXPECT_TRUE(results[2].found);
}

TEST_P(IndexDesignTest, ConcurrentClientsDisjointRanges) {
  TestRig setup(GetParam());
  const auto data = MakeData(4000, 16);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());
  setup.cluster.fabric().SetNumClients(8);

  // 8 clients concurrently insert into disjoint gap slots.
  std::vector<std::unique_ptr<ClientContext>> ctxs;
  std::vector<uint64_t> failures(8, 0);
  for (uint32_t c = 0; c < 8; ++c) {
    ctxs.push_back(
        std::make_unique<ClientContext>(c, setup.cluster.fabric(),
                                        setup.index_config.page_size, c));
    std::vector<KV> inserts;
    for (uint64_t i = 0; i < 1500; ++i) {
      inserts.push_back({i * 16 + c + 1, c * 1000000 + i});
    }
    Spawn(setup.cluster.simulator(),
          InsertMany(*setup.index, *ctxs[c], std::move(inserts),
                     &failures[c]));
  }
  setup.cluster.simulator().Run();
  for (uint32_t c = 0; c < 8; ++c) EXPECT_EQ(failures[c], 0u);

  // Verify: every inserted key visible, global scan sorted with the right
  // cardinality.
  auto ctx = setup.MakeClient(0);
  std::vector<KV> out;
  uint64_t count = 0;
  Spawn(setup.cluster.simulator(),
        ScanOne(*setup.index, ctx, 0, 16ull * 4000ull, &out, &count));
  setup.cluster.simulator().Run();
  EXPECT_EQ(count, 4000u + 8u * 1500u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                             [](const KV& a, const KV& b) {
                               return a.key < b.key;
                             }));
  std::vector<LookupResult> results;
  std::vector<Key> probes;
  for (uint32_t c = 0; c < 8; ++c) probes.push_back(1499 * 16 + c + 1);
  Spawn(setup.cluster.simulator(),
        LookupMany(*setup.index, ctx, probes, &results));
  setup.cluster.simulator().Run();
  for (uint32_t c = 0; c < 8; ++c) {
    EXPECT_TRUE(results[c].found) << "client " << c << "'s key lost";
    EXPECT_EQ(results[c].value, c * 1000000ull + 1499);
  }
}

TEST_P(IndexDesignTest, ConcurrentMixedOpsKeepInvariants) {
  TestRig setup(GetParam());
  const auto data = MakeData(3000, 4);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());
  setup.cluster.fabric().SetNumClients(6);

  struct Driver {
    static Task<> Run(DistributedIndex& index, ClientContext& ctx,
                      uint64_t seed, uint64_t* inserted) {
      Rng rng(seed);
      for (int i = 0; i < 400; ++i) {
        const double a = rng.NextDouble();
        const Key k = rng.NextBelow(12000);
        if (a < 0.4) {
          if ((co_await index.Insert(ctx, k, k + seed)).ok()) (*inserted)++;
        } else if (a < 0.6) {
          (void)co_await index.Delete(ctx, k);
        } else if (a < 0.85) {
          (void)co_await index.Lookup(ctx, k);
        } else {
          (void)co_await index.Scan(ctx, k, k + 64, nullptr);
        }
      }
    }
  };

  std::vector<std::unique_ptr<ClientContext>> ctxs;
  std::vector<uint64_t> inserted(6, 0);
  for (uint32_t c = 0; c < 6; ++c) {
    ctxs.push_back(
        std::make_unique<ClientContext>(c, setup.cluster.fabric(),
                                        setup.index_config.page_size, c));
    Spawn(setup.cluster.simulator(),
          Driver::Run(*setup.index, *ctxs[c], c + 1, &inserted[c]));
  }
  setup.cluster.simulator().Run();

  // Global invariants: scan is sorted; every op completed (Run drained).
  auto ctx = setup.MakeClient(0);
  std::vector<KV> out;
  uint64_t count = 0;
  Spawn(setup.cluster.simulator(),
        ScanOne(*setup.index, ctx, 0, 48000, &out, &count));
  setup.cluster.simulator().Run();
  EXPECT_EQ(count, out.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                             [](const KV& a, const KV& b) {
                               return a.key < b.key;
                             }));
  uint64_t total_inserted = 0;
  for (uint64_t i : inserted) total_inserted += i;
  EXPECT_GT(total_inserted, 0u);
}

TEST_P(IndexDesignTest, UpdateAndLookupAll) {
  TestRig setup(GetParam());
  const auto data = MakeData(3000, 4);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());
  auto ctx = setup.MakeClient(0);

  struct Driver {
    static Task<> Go(DistributedIndex& index, ClientContext& ctx) {
      // In-place update of an existing key.
      EXPECT_TRUE((co_await index.Update(ctx, 400, 777777)).ok());
      LookupResult r = co_await index.Lookup(ctx, 400);
      EXPECT_TRUE(r.found);
      EXPECT_EQ(r.value, 777777u);

      // Updating a missing key reports NotFound and inserts nothing.
      EXPECT_TRUE((co_await index.Update(ctx, 401, 1)).IsNotFound());
      EXPECT_FALSE((co_await index.Lookup(ctx, 401)).found);

      // LookupAll over duplicates, including runs longer than a leaf
      // (capacity 10 at P=256) that split across pages.
      for (uint64_t i = 0; i < 25; ++i) {
        EXPECT_TRUE((co_await index.Insert(ctx, 800, 9000 + i)).ok());
      }
      std::vector<btree::Value> values;
      const uint64_t n = co_await index.LookupAll(ctx, 800, &values);
      EXPECT_EQ(n, 26u);  // bulk entry + 25 duplicates
      EXPECT_EQ(values.size(), 26u);
      std::set<btree::Value> unique(values.begin(), values.end());
      EXPECT_EQ(unique.size(), 26u);

      // Update touches exactly one of the duplicates.
      EXPECT_TRUE((co_await index.Update(ctx, 800, 424242)).ok());
      values.clear();
      (void)co_await index.LookupAll(ctx, 800, &values);
      EXPECT_EQ(std::count(values.begin(), values.end(), 424242), 1);

      // Delete one duplicate; count drops by exactly one.
      EXPECT_TRUE((co_await index.Delete(ctx, 800)).ok());
      EXPECT_EQ(co_await index.LookupAll(ctx, 800, nullptr), 25u);

      // LookupAll of a missing key is empty.
      EXPECT_EQ(co_await index.LookupAll(ctx, 801, nullptr), 0u);
    }
  };
  Spawn(setup.cluster.simulator(), Driver::Go(*setup.index, ctx));
  setup.cluster.simulator().Run();
}

// ---- Design-specific behaviour ---------------------------------------------

TEST(SkewPlacementTest, CoarseRangeWeightsShiftDataToServerZero) {
  TestRig setup(Design::kCoarseRange, 4, {0.80, 0.12, 0.05, 0.03});
  const auto data = MakeData(10000);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());
  auto* cg = dynamic_cast<CoarseGrainedIndex*>(setup.index.get());
  ASSERT_NE(cg, nullptr);
  const auto s0 = cg->tree(0).GetStats();
  const auto s3 = cg->tree(3).GetStats();
  EXPECT_NEAR(static_cast<double>(s0.live_entries), 8000, 200);
  EXPECT_NEAR(static_cast<double>(s3.live_entries), 300, 100);
  // Requests spread uniformly over keys: ~80% of them route to server 0.
  uint32_t to_zero = 0;
  for (uint64_t i = 0; i < 10000; i += 10) {
    if (cg->partitioner().ServerFor(i * 2) == 0) to_zero++;
  }
  EXPECT_NEAR(to_zero, 800, 30);
}

// Scans `ranges` one after another, recording each count and the virtual
// time it completed at; `collect` picks a row vector or count-only.
Task<> ScanRanges(DistributedIndex& index, ClientContext& ctx,
                  std::vector<std::pair<Key, Key>> ranges, bool collect,
                  std::vector<uint64_t>* counts,
                  std::vector<SimTime>* done_at) {
  for (const auto& [lo, hi] : ranges) {
    std::vector<KV> rows;
    const uint64_t count =
        co_await index.Scan(ctx, lo, hi, collect ? &rows : nullptr);
    if (collect) {
      EXPECT_EQ(rows.size(), count);
    }
    counts->push_back(count);
    done_at->push_back(ctx.fabric().simulator().now());
  }
}

// A count-only CG scan (out == nullptr) leaves the rows out of the reply
// but is charged for them: counts, completion times and the bytes every
// server sends and receives match a scan that collects the rows.
TEST(CoarseGrainedScanTest, CountOnlyRepliesChargeTheElidedRows) {
  const std::vector<std::pair<Key, Key>> ranges = {
      {0, 100}, {2999, 9000}, {11000, 30000}, {0, 40000}, {20000, 20001}};
  for (Design design : {Design::kCoarseRange, Design::kCoarseHash}) {
    struct Outcome {
      std::vector<uint64_t> counts;
      std::vector<SimTime> done_at;
      std::vector<uint64_t> tx_bytes;
      std::vector<uint64_t> rx_bytes;
    };
    auto run = [&](bool collect) {
      TestRig setup(design);
      Outcome outcome;
      EXPECT_TRUE(setup.index->BulkLoad(MakeData(20000)).ok());
      auto ctx = setup.MakeClient(0);
      std::vector<Key> doomed;  // tombstones inside the scanned leaves
      for (Key k = 0; k < 40000; k += 14) doomed.push_back(k);
      std::vector<bool> deleted;
      Spawn(setup.cluster.simulator(),
            DeleteMany(*setup.index, ctx, doomed, &deleted));
      setup.cluster.simulator().Run();
      EXPECT_EQ(std::count(deleted.begin(), deleted.end(), true),
                static_cast<std::ptrdiff_t>(doomed.size()));
      Spawn(setup.cluster.simulator(),
            ScanRanges(*setup.index, ctx, ranges, collect, &outcome.counts,
                       &outcome.done_at));
      setup.cluster.simulator().Run();
      for (uint32_t s = 0; s < 4; ++s) {
        const auto stats = setup.cluster.fabric().server_stats(s);
        outcome.tx_bytes.push_back(stats.tx_bytes);
        outcome.rx_bytes.push_back(stats.rx_bytes);
      }
      return outcome;
    };
    SCOPED_TRACE(DesignName(design));
    const Outcome rows = run(true);
    const Outcome count_only = run(false);
    ASSERT_EQ(rows.counts.size(), ranges.size());
    EXPECT_EQ(rows.counts[3], 20000u - 40000u / 14 - 1);
    EXPECT_EQ(count_only.counts, rows.counts);
    EXPECT_EQ(count_only.done_at, rows.done_at);
    EXPECT_EQ(count_only.tx_bytes, rows.tx_bytes);
    EXPECT_EQ(count_only.rx_bytes, rows.rx_bytes);
  }
}

TEST(SkewPlacementTest, FineGrainedSpreadsPagesEvenly) {
  TestRig setup(Design::kFine);
  const auto data = MakeData(20000);
  ASSERT_TRUE(setup.index->BulkLoad(data).ok());
  // Round-robin leaf placement: region fill within ~2 pages of each other.
  std::vector<uint64_t> allocated;
  for (uint32_t s = 0; s < 4; ++s) {
    allocated.push_back(setup.cluster.fabric().region(s)->allocated());
  }
  const uint64_t min = *std::min_element(allocated.begin(), allocated.end());
  const uint64_t max = *std::max_element(allocated.begin(), allocated.end());
  EXPECT_LE(max - min, 16ull * setup.index_config.page_size);
}

TEST(HybridDesignTest, RejectsHashPartitioning) {
  TestRig setup(Design::kHybrid);
  setup.index_config.partition = PartitionKind::kHash;
  HybridIndex hybrid(setup.cluster, setup.index_config);
  const auto data = MakeData(100);
  EXPECT_EQ(hybrid.BulkLoad(data).code(), StatusCode::kUnsupported);
}

TEST(HeadNodeTest, ScansWorkWithAndWithoutHeadNodes) {
  for (uint32_t interval : {0u, 2u, 4u, 16u}) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 4;
    Cluster cluster(fc, 64ull << 20);
    IndexConfig ic;
    ic.page_size = 256;
    ic.head_node_interval = interval;
    FineGrainedIndex index(cluster, ic);
    const auto data = MakeData(5000, 2);
    ASSERT_TRUE(index.BulkLoad(data).ok());
    ClientContext ctx(0, cluster.fabric(), ic.page_size, 1);
    std::vector<KV> out;
    uint64_t count = 0;
    Spawn(cluster.simulator(),
          ScanOne(index, ctx, 1000, 9000, &out, &count));
    cluster.simulator().Run();
    EXPECT_EQ(count, 4000u) << "interval " << interval;
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                               [](const KV& a, const KV& b) {
                                 return a.key < b.key;
                               }));
  }
}

TEST(HeadNodeTest, PrefetchReducesRoundTrips) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64ull << 20);

  auto measure = [&](uint32_t interval) {
    Cluster local_cluster(fc, 64ull << 20);
    IndexConfig ic;
    ic.page_size = 256;
    ic.head_node_interval = interval;
    FineGrainedIndex index(local_cluster, ic);
    const auto data = MakeData(20000, 2);
    EXPECT_TRUE(index.BulkLoad(data).ok());
    ClientContext ctx(0, local_cluster.fabric(), ic.page_size, 1);
    uint64_t count = 0;
    Spawn(local_cluster.simulator(),
          ScanOne(index, ctx, 0, 40000, nullptr, &count));
    local_cluster.simulator().Run();
    EXPECT_EQ(count, 20000u);
    return ctx.round_trips.value();
  };

  const uint64_t without = measure(0);
  const uint64_t with_heads = measure(16);
  EXPECT_LT(with_heads, without / 4)
      << "head-node prefetch must collapse per-leaf round trips";
}

TEST(HeadNodeTest, OutdatedHeadsFallBackAndRebuildRestoresThem) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Cluster cluster(fc, 64ull << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.head_node_interval = 4;
  FineGrainedIndex index(cluster, ic);
  const auto data = MakeData(2000, 4);
  ASSERT_TRUE(index.BulkLoad(data).ok());
  ClientContext ctx(0, cluster.fabric(), ic.page_size, 1);

  // Splits make head nodes stale.
  std::vector<KV> inserts;
  for (uint64_t i = 0; i < 2000; ++i) {
    inserts.push_back({i * 4 + 1, i});
    inserts.push_back({i * 4 + 2, i});
  }
  uint64_t failures = 0;
  Spawn(cluster.simulator(),
        InsertMany(index, ctx, std::move(inserts), &failures));
  cluster.simulator().Run();
  ASSERT_EQ(failures, 0u);

  // Scans stay correct over stale heads.
  uint64_t count = 0;
  Spawn(cluster.simulator(), ScanOne(index, ctx, 0, 8000, nullptr, &count));
  cluster.simulator().Run();
  EXPECT_EQ(count, 6000u);

  // Rebuild, then scans are correct and cheaper.
  const uint64_t stale_round_trips = ctx.round_trips;
  (void)stale_round_trips;
  struct Rebuild {
    static Task<> Run(FineGrainedIndex& index, ClientContext& ctx) {
      (void)co_await index.RebuildHeads(ctx);
    }
  };
  Spawn(cluster.simulator(), Rebuild::Run(index, ctx));
  cluster.simulator().Run();

  ctx.round_trips.Reset();
  count = 0;
  Spawn(cluster.simulator(), ScanOne(index, ctx, 0, 8000, nullptr, &count));
  cluster.simulator().Run();
  EXPECT_EQ(count, 6000u);
}

// ---- Metrics registry parity ------------------------------------------------

// Every counter a context moves must read identically from the fabric's
// registry, per client via the {client} label and in aggregate across the
// family (docs/observability.md). This is the contract that lets RunResult
// be a pure window over the registry.
TEST_P(IndexDesignTest, RegistryMirrorsContextCounters) {
  TestRig setup(GetParam());
  ASSERT_TRUE(setup.index->BulkLoad(MakeData(4000)).ok());
  ClientContext a = setup.MakeClient(0, 1);
  ClientContext b = setup.MakeClient(1, 2);

  std::vector<Key> keys;
  for (Key k = 0; k < 400; ++k) keys.push_back(k * 2);
  std::vector<LookupResult> results_a, results_b;
  Spawn(setup.cluster.simulator(),
        LookupMany(*setup.index, a, keys, &results_a));
  Spawn(setup.cluster.simulator(),
        LookupMany(*setup.index, b, keys, &results_b));
  setup.cluster.simulator().Run();

  std::vector<KV> fresh;
  for (uint64_t i = 0; i < 200; ++i) fresh.push_back({i * 2 + 1, i + 1});
  uint64_t failures = 0;
  Spawn(setup.cluster.simulator(),
        InsertMany(*setup.index, a, std::move(fresh), &failures));
  setup.cluster.simulator().Run();
  ASSERT_EQ(failures, 0u);

  auto& registry = setup.cluster.fabric().metrics();
  const auto parity = [&](const char* family, const metrics::Counter& ca,
                          const metrics::Counter& cb) {
    EXPECT_EQ(registry.Value(family, "client", "0"), ca.value()) << family;
    EXPECT_EQ(registry.Value(family, "client", "1"), cb.value()) << family;
    EXPECT_EQ(registry.Value(family), ca.value() + cb.value()) << family;
  };
  parity("client.round_trips", a.round_trips, b.round_trips);
  parity("client.restarts", a.restarts, b.restarts);
  parity("client.lock_waits", a.lock_waits, b.lock_waits);
  parity("client.backoff_rounds", a.backoff_rounds, b.backoff_rounds);
  parity("client.lock_steals", a.lock_steals, b.lock_steals);
  EXPECT_GT(registry.Value("client.round_trips"), 0u);

  // A Snapshot window over more work isolates exactly that work.
  const metrics::Snapshot begin = registry.Collect();
  const uint64_t trips_before = a.round_trips;
  std::vector<LookupResult> again;
  Spawn(setup.cluster.simulator(), LookupMany(*setup.index, a, keys, &again));
  setup.cluster.simulator().Run();
  const metrics::Delta window =
      metrics::Delta::Between(begin, registry.Collect());
  EXPECT_EQ(window.Value("client.round_trips", "client", "0"),
            a.round_trips - trips_before);
  EXPECT_EQ(window.Value("client.round_trips", "client", "1"), 0u);
}

}  // namespace
}  // namespace namtree::index
