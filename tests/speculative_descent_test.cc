// Tests for the one-RTT fast paths: speculative descent (predict the
// root→leaf path from cached inner images, fetch the missing prefix plus
// the leaf in one doorbell-batched READ, validate top-down with fallback)
// and batched MultiGet (grouped point lookups served from shared chain
// walks). Both must change performance only, never results — most tests
// here are differential against the plain paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/random.h"
#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/node_cache.h"
#include "nam/cluster.h"
#include "rdma/audit.h"
#include "ycsb/runner.h"
#include "ycsb/workload.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

std::vector<KV> EvenKeys(uint64_t n) {
  std::vector<KV> data;
  data.reserve(n);
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 2, i});
  return data;
}

Task<> LookupSequence(DistributedIndex& index, ClientContext& ctx,
                      int rounds, uint64_t keys, uint64_t* found) {
  for (int i = 0; i < rounds; ++i) {
    const Key k = ctx.rng().NextBelow(keys) * 2;
    const LookupResult r = co_await index.Lookup(ctx, k);
    if (r.found) (*found)++;
  }
}

// ---- Speculative descent ----------------------------------------------------

struct SpecRunStats {
  uint64_t found = 0;
  uint64_t round_trips = 0;
  uint64_t speculative_hits = 0;
  uint64_t mispredicts = 0;
  FineGrainedIndex::CacheStats cache;
  std::vector<uint64_t> lru;
};

/// One deterministic single-client run: warm with `rounds` random lookups,
/// TTL `ttl`, speculation per `speculative`. Everything about the two runs
/// is identical except the knob.
SpecRunStats RunSpecLookups(bool speculative, SimTime ttl, int rounds) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = ttl;
  ic.speculative_descent = speculative;
  FineGrainedIndex index(cluster, ic);
  const uint64_t keys = 20000;
  EXPECT_TRUE(index.BulkLoad(EvenKeys(keys)).ok());
  EXPECT_GE(index.root_level(), 2u) << "tree too short to exercise descent";

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 7);
  SpecRunStats stats;
  Spawn(cluster.simulator(),
        LookupSequence(index, ctx, rounds, keys, &stats.found));
  cluster.simulator().Run();
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();

  // Registry parity: the registered client.* cells must read identically
  // to the context handles they are backed by (docs/observability.md).
  auto& registry = cluster.fabric().metrics();
  EXPECT_EQ(registry.Value("client.round_trips", "client", "0"),
            ctx.round_trips.value());
  EXPECT_EQ(registry.Value("client.speculative_hits", "client", "0"),
            ctx.speculative_hits.value());
  EXPECT_EQ(registry.Value("client.mispredicts", "client", "0"),
            ctx.mispredicts.value());

  stats.round_trips = ctx.round_trips;
  stats.speculative_hits = ctx.speculative_hits;
  stats.mispredicts = ctx.mispredicts;
  stats.cache = index.GetCacheStats();
  if (NodeCache* cache = index.CacheFor(0)) stats.lru = cache->LruKeys();
  return stats;
}

TEST(SpeculativeDescentTest, FindsEverythingWithSameCacheBehavior) {
  // Nothing expires under either TTL, so the two runs must agree not only
  // on every result but on every cache counter and the exact LRU order —
  // the validation loop consults the cache in the plain loop's order. A
  // long TTL keeps every descent on the validation loop; TTL 0 (no expiry)
  // sends warm descents through the replay of the predicted walk, which
  // must count and touch each cached hop as the plain loop would.
  for (const SimTime ttl : {kSecond, SimTime{0}}) {
    SCOPED_TRACE(ttl == 0 ? "ttl 0" : "ttl 1s");
    const SpecRunStats plain = RunSpecLookups(false, ttl, 2000);
    const SpecRunStats spec = RunSpecLookups(true, ttl, 2000);
    EXPECT_EQ(plain.found, 2000u);
    EXPECT_EQ(spec.found, 2000u);
    EXPECT_EQ(spec.cache.hits, plain.cache.hits);
    EXPECT_EQ(spec.cache.misses, plain.cache.misses);
    EXPECT_EQ(spec.cache.expirations, plain.cache.expirations);
    EXPECT_EQ(spec.lru, plain.lru) << "speculation skewed the LRU order";
    EXPECT_EQ(plain.speculative_hits, 0u);
    EXPECT_EQ(plain.mispredicts, 0u);
  }
}

Task<> ZipfLookupLane(DistributedIndex& index, ClientContext& ctx,
                      ZipfGenerator& zipf, int rounds, uint64_t keys,
                      uint64_t* found) {
  for (int i = 0; i < rounds; ++i) {
    const Key k = FnvScramble(zipf.Next(ctx.rng()), keys) * 2;
    const LookupResult r = co_await index.Lookup(ctx, k);
    if (r.found) (*found)++;
  }
}

TEST(SpeculativeDescentTest, PipelinedLanesOfOneClientKeepTheirOwnPaths) {
  // Eight lanes per client share the client id, and so its cache, but each
  // has its own context. A lane suspended in its speculative batch READ
  // must resume with its own predicted path: replaying another lane's
  // hops would route its key down someone else's path and miss it.
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.speculative_descent = true;  // ttl 0: warm hops are replayed
  FineGrainedIndex index(cluster, ic);
  const uint64_t keys = 20000;
  ASSERT_TRUE(index.BulkLoad(EvenKeys(keys)).ok());
  ASSERT_GE(index.root_level(), 2u);

  constexpr uint32_t kClients = 2;
  constexpr uint32_t kLanes = 8;
  constexpr int kRounds = 300;
  ZipfGenerator zipf(keys, 0.99);
  std::vector<std::unique_ptr<ClientContext>> lanes;
  uint64_t found = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    for (uint32_t lane = 0; lane < kLanes; ++lane) {
      lanes.push_back(std::make_unique<ClientContext>(
          c, cluster.fabric(), ic.page_size, 100 * c + lane));
      Spawn(cluster.simulator(), ZipfLookupLane(index, *lanes.back(), zipf,
                                                kRounds, keys, &found));
    }
  }
  // A few milliseconds of virtual time suffice; a lane sent down another
  // lane's path may never finish.
  EXPECT_FALSE(cluster.simulator().RunUntil(kSecond))
      << "lanes still running after 1 s of virtual time";
  EXPECT_EQ(found, uint64_t{kClients} * kLanes * kRounds);
  uint64_t hits = 0;
  for (const auto& ctx : lanes) hits += ctx->speculative_hits;
  EXPECT_GT(hits, 0u);
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

TEST(SpeculativeDescentTest, ExpiredImagesStillDriveOneRttDescents) {
  // A TTL short enough that inner images are expired by the time they are
  // reused: the plain loop re-reads the path level by level (one RTT per
  // level) while speculation predicts through the expired images and
  // refreshes the whole path in one batched RTT.
  const SimTime ttl = 30 * kMicrosecond;
  const SpecRunStats plain = RunSpecLookups(false, ttl, 2000);
  const SpecRunStats spec = RunSpecLookups(true, ttl, 2000);
  EXPECT_EQ(plain.found, 2000u);
  EXPECT_EQ(spec.found, 2000u);
  EXPECT_GT(spec.speculative_hits, 0u);
  EXPECT_LT(spec.round_trips, plain.round_trips)
      << "speculation must strictly reduce round trips under TTL churn";
  // The descent itself collapses to one RTT: with a height >= 3 tree the
  // per-op saving must be large, not marginal.
  EXPECT_LT(static_cast<double>(spec.round_trips),
            0.6 * static_cast<double>(plain.round_trips));
}

TEST(SpeculativeDescentTest, MispredictFallbackRecoversMovedKeys) {
  // Note the TTL: with a never-expiring cache, validation would consult the
  // same stale images prediction used and the two always agree (the leaf
  // chain's chase absorbs the staleness — a speculative *hit*). A short TTL
  // makes prediction run on expired images while validation sees the fresh
  // batched ones; after the writer's splits those route differently, which
  // is exactly the mispredict → fallback path under test.
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Cluster cluster(fc, 32 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = 50 * kMicrosecond;
  ic.speculative_descent = true;
  FineGrainedIndex index(cluster, ic);
  EXPECT_TRUE(index.BulkLoad(EvenKeys(2000)).ok());
  cluster.fabric().SetNumClients(2);

  // Reader warms its cache, then a writer splits many leaves (and inner
  // nodes), leaving the reader's cached images stale.
  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  uint64_t found = 0;
  Spawn(cluster.simulator(),
        LookupSequence(index, reader, 500, 2000, &found));
  cluster.simulator().Run();

  ClientContext writer(1, cluster.fabric(), ic.page_size, 2);
  struct Writer {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx) {
      for (Key k = 1; k < 8000; k += 2) {
        EXPECT_TRUE((co_await index.Insert(ctx, k, k)).ok());
      }
    }
  };
  Spawn(cluster.simulator(), Writer::Go(index, writer));
  cluster.simulator().Run();

  // The reader's speculative descents now predict from stale images: the
  // validation loop must chase/fall back and still find every key.
  struct Verify {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t* missing) {
      for (Key k = 1; k < 8000; k += 2) {
        const LookupResult r = co_await index.Lookup(ctx, k);
        if (!r.found) (*missing)++;
      }
    }
  };
  uint64_t missing = 0;
  Spawn(cluster.simulator(), Verify::Go(index, reader, &missing));
  cluster.simulator().Run();
  EXPECT_EQ(missing, 0u) << "a mispredicted descent lost keys";
  EXPECT_GT(reader.mispredicts, 0u)
      << "stale predictions must be counted as mispredicts";
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

TEST(SpeculativeDescentTest, SurvivesServerKillUnderReplication) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 3;
  fc.replication_factor = 2;
  Cluster cluster(fc, 32 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = 50 * kMicrosecond;
  ic.speculative_descent = true;
  FineGrainedIndex index(cluster, ic);
  EXPECT_TRUE(index.BulkLoad(EvenKeys(5000)).ok());
  cluster.fabric().SetNumClients(1);

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 3);
  struct Driver {
    static Task<> Go(Cluster& cluster, FineGrainedIndex& index,
                     ClientContext& ctx, uint64_t* missing) {
      // Warm, then kill a server mid-run: speculative batches whose slots
      // target the dead primary are rejected at validation time and the
      // fallback reads fail over to the backup replica.
      for (Key k = 0; k < 1000; ++k) {
        const LookupResult r = co_await index.Lookup(ctx, k * 2);
        if (!r.found) (*missing)++;
      }
      cluster.fabric().KillServer(1);
      for (Key k = 0; k < 5000; ++k) {
        const LookupResult r = co_await index.Lookup(ctx, k * 2);
        if (!r.found) (*missing)++;
      }
    }
  };
  uint64_t missing = 0;
  Spawn(cluster.simulator(), Driver::Go(cluster, index, ctx, &missing));
  cluster.simulator().Run();
  EXPECT_EQ(missing, 0u) << "failover lost keys under speculation";
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

TEST(SpeculativeDescentTest, ClientCrashMidDescentLeavesCleanAudit) {
  // Crash the speculating client after its k-th verb for a sweep of k:
  // every lookup must end found / clean-miss / Unavailable (never a wrong
  // result), and the fabric audit must stay clean.
  for (const uint64_t crash_after : {1ull, 2ull, 3ull, 5ull, 9ull, 17ull}) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 2;
    fc.crash_points = {{0, crash_after}};
    Cluster cluster(fc, 32 << 20);
    IndexConfig ic;
    ic.page_size = 256;
    ic.client_cache_pages = 2048;
    ic.client_cache_ttl = 10 * kMicrosecond;  // expire fast: batches stay hot
    ic.speculative_descent = true;
    FineGrainedIndex index(cluster, ic);
    EXPECT_TRUE(index.BulkLoad(EvenKeys(3000)).ok());
    cluster.fabric().SetNumClients(1);

    ClientContext ctx(0, cluster.fabric(), ic.page_size, crash_after);
    struct Driver {
      static Task<> Go(FineGrainedIndex& index, ClientContext& ctx) {
        for (Key k = 0; k < 50; ++k) {
          const LookupResult r = co_await index.Lookup(ctx, k * 2);
          if (!r.status.ok()) {
            EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
            co_return;
          }
          EXPECT_TRUE(r.found);
        }
      }
    };
    Spawn(cluster.simulator(), Driver::Go(index, ctx));
    cluster.simulator().Run();
    EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
        << "crash point " << crash_after << ": "
        << cluster.fabric().CheckAuditClean().ToString();
  }
}

// ---- MultiGet ---------------------------------------------------------------

enum class DesignUnderTest {
  kFine,
  kCoarseOneSided,
  kHybrid,
  kCoarse,
  kCoarseHash,
};

std::unique_ptr<DistributedIndex> MakeDesign(DesignUnderTest kind,
                                             Cluster& cluster,
                                             const IndexConfig& ic) {
  switch (kind) {
    case DesignUnderTest::kFine:
      return std::make_unique<FineGrainedIndex>(cluster, ic);
    case DesignUnderTest::kCoarseOneSided:
      return std::make_unique<CoarseOneSidedIndex>(cluster, ic);
    case DesignUnderTest::kHybrid:
      return std::make_unique<HybridIndex>(cluster, ic);
    case DesignUnderTest::kCoarse:
      return std::make_unique<CoarseGrainedIndex>(cluster, ic);
    case DesignUnderTest::kCoarseHash: {
      IndexConfig hashed = ic;
      hashed.partition = PartitionKind::kHash;
      return std::make_unique<CoarseGrainedIndex>(cluster, hashed);
    }
  }
  return nullptr;
}

class MultiGetDifferentialTest
    : public ::testing::TestWithParam<DesignUnderTest> {};

INSTANTIATE_TEST_SUITE_P(AllDesigns, MultiGetDifferentialTest,
                         ::testing::Values(DesignUnderTest::kFine,
                                           DesignUnderTest::kCoarseOneSided,
                                           DesignUnderTest::kHybrid,
                                           DesignUnderTest::kCoarse,
                                           DesignUnderTest::kCoarseHash),
                         [](const auto& info) {
                           switch (info.param) {
                             case DesignUnderTest::kFine: return "Fine";
                             case DesignUnderTest::kCoarseOneSided:
                               return "CoarseOneSided";
                             case DesignUnderTest::kHybrid: return "Hybrid";
                             case DesignUnderTest::kCoarse: return "Coarse";
                             case DesignUnderTest::kCoarseHash:
                               return "CoarseHash";
                           }
                           return "Unknown";
                         });

TEST_P(MultiGetDifferentialTest, MatchesIndividualLookups) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = kSecond;
  ic.speculative_descent = true;  // exercised where supported, inert elsewhere
  auto index = MakeDesign(GetParam(), cluster, ic);
  const uint64_t keys = 4000;
  ASSERT_TRUE(index->BulkLoad(EvenKeys(keys)).ok());

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 11);
  struct Driver {
    static Task<> Go(DistributedIndex& index, ClientContext& ctx,
                     uint64_t keys) {
      // Warm the caches so grouped prediction has something to group by.
      for (int i = 0; i < 800; ++i) {
        (void)(co_await index.Lookup(ctx, ctx.rng().NextBelow(keys) * 2))
            .status;
      }
      // Batches mixing present keys, absent keys (odd), dense runs that
      // share leaves, and unsorted input — MultiGet must agree with N
      // independent Lookups on found/value for every key.
      std::vector<std::vector<Key>> batches;
      batches.push_back({100, 102, 104, 106, 108, 110, 112, 114});  // one leaf
      batches.push_back({3, 101, 4444, 7999, 200, 202});  // hits and misses
      batches.push_back({7000, 2, 5000, 2, 6400, 0});     // unsorted, dupes
      std::vector<Key> wide;
      for (Key k = 0; k < 64; ++k) wide.push_back(k * 120);
      batches.push_back(wide);  // spans partitions/leaves
      for (const auto& batch : batches) {
        std::vector<LookupResult> multi(batch.size());
        co_await index.MultiGet(ctx, batch, multi.data());
        for (size_t i = 0; i < batch.size(); ++i) {
          const LookupResult single = co_await index.Lookup(ctx, batch[i]);
          EXPECT_EQ(multi[i].found, single.found)
              << "key " << batch[i] << " diverged";
          if (single.found) {
            EXPECT_EQ(multi[i].value, single.value)
                << "key " << batch[i] << " returned a different value";
          }
          EXPECT_TRUE(multi[i].status.ok());
        }
      }
    }
  };
  Spawn(cluster.simulator(), Driver::Go(*index, ctx, keys));
  cluster.simulator().Run();
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

TEST(MultiGetTest, GroupedLookupsCostFewerRoundTrips) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = kSecond;
  FineGrainedIndex index(cluster, ic);
  ASSERT_TRUE(index.BulkLoad(EvenKeys(20000)).ok());

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 5);
  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx) {
      // Warm the inner cache so PredictLeaf can group.
      for (Key k = 0; k < 20000; k += 50) {
        (void)(co_await index.Lookup(ctx, k * 2)).status;
      }
      // A dense ascending batch: many keys share each leaf, so the grouped
      // walk reads each leaf once instead of once per key.
      std::vector<Key> batch;
      for (Key k = 1000; k < 1256; ++k) batch.push_back(k * 2);
      std::vector<LookupResult> results(batch.size());

      const uint64_t before_single = ctx.round_trips;
      for (const Key k : batch) {
        const LookupResult r = co_await index.Lookup(ctx, k);
        EXPECT_TRUE(r.found);
      }
      const uint64_t single_cost = ctx.round_trips - before_single;

      const uint64_t before_multi = ctx.round_trips;
      co_await index.MultiGet(ctx, batch, results.data());
      const uint64_t multi_cost = ctx.round_trips - before_multi;
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(results[i].found) << "batched lookup lost key " << i;
      }
      EXPECT_LT(multi_cost * 2, single_cost)
          << "grouping must at least halve the round trips of a dense batch";
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, ctx));
  cluster.simulator().Run();
}

// ---- YCSB MultiGet loop -----------------------------------------------------

TEST(MultiGetRunnerTest, BatchedPointLoopCompletesCleanly) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = kSecond;
  ic.speculative_descent = true;
  FineGrainedIndex index(cluster, ic);
  const uint64_t keys = 10000;
  ASSERT_TRUE(index.BulkLoad(EvenKeys(keys)).ok());

  ycsb::RunConfig rc;
  rc.num_clients = 8;
  rc.multiget_batch = 8;
  rc.mix = ycsb::WorkloadC();  // 95% lookups, 5% inserts through the flush
  rc.warmup = kMillisecond;
  rc.duration = 10 * kMillisecond;
  const ycsb::RunResult result = ycsb::RunWorkload(cluster, index, keys, rc);
  EXPECT_GT(result.ops(), 0u);
  EXPECT_EQ(result.failed_ops(), 0u);
  EXPECT_GT(result.speculative_hits(), 0u);
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

}  // namespace
}  // namespace namtree::index
