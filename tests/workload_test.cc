// Tests for the modified-YCSB workload suite (Table 3), the data generator,
// partitioning, and the closed-loop runner.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/partition.h"
#include "nam/cluster.h"
#include "ycsb/runner.h"
#include "ycsb/workload.h"

namespace namtree::ycsb {
namespace {

using btree::KV;

TEST(WorkloadMixTest, Table3Mixes) {
  EXPECT_DOUBLE_EQ(WorkloadA().point, 1.0);
  EXPECT_DOUBLE_EQ(WorkloadB(0.01).range, 1.0);
  EXPECT_DOUBLE_EQ(WorkloadB(0.01).range_selectivity, 0.01);
  EXPECT_DOUBLE_EQ(WorkloadC().point, 0.95);
  EXPECT_DOUBLE_EQ(WorkloadC().insert, 0.05);
  EXPECT_DOUBLE_EQ(WorkloadD().point, 0.50);
  EXPECT_DOUBLE_EQ(WorkloadD().insert, 0.50);
}

TEST(DatasetTest, MonotonicKeysWithStride) {
  const auto data = GenerateDataset(1000);
  ASSERT_EQ(data.size(), 1000u);
  for (uint64_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].key, i * kKeyStride);
    EXPECT_EQ(data[i].value, i);
  }
}

TEST(WorkloadGeneratorTest, MixFractionsRespected) {
  WorkloadGenerator gen(WorkloadC(), 10000);
  Rng rng(3);
  std::map<OpType, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[gen.Next(rng).type]++;
  EXPECT_NEAR(counts[OpType::kPoint], 0.95 * n, 0.01 * n);
  EXPECT_NEAR(counts[OpType::kInsert], 0.05 * n, 0.01 * n);
  EXPECT_EQ(counts[OpType::kRange], 0);
}

TEST(WorkloadGeneratorTest, RangeSpanMatchesSelectivity) {
  const double sel = 0.01;
  WorkloadGenerator gen(WorkloadB(sel), 100000);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const Operation op = gen.Next(rng);
    ASSERT_EQ(op.type, OpType::kRange);
    EXPECT_EQ(op.hi - op.key,
              static_cast<btree::Key>(sel * 100000 * kKeyStride));
    EXPECT_LE(op.hi, gen.domain());
  }
}

TEST(WorkloadGeneratorTest, PointKeysHitDataset) {
  WorkloadGenerator gen(WorkloadA(), 5000);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Operation op = gen.Next(rng);
    EXPECT_EQ(op.key % kKeyStride, 0u) << "point keys must exist";
    EXPECT_LT(op.key, gen.domain());
  }
}

TEST(WorkloadGeneratorTest, InsertKeysLandInGaps) {
  WorkloadGenerator gen(WorkloadD(), 5000);
  Rng rng(6);
  int inserts = 0;
  for (int i = 0; i < 1000; ++i) {
    const Operation op = gen.Next(rng);
    if (op.type != OpType::kInsert) continue;
    inserts++;
    EXPECT_NE(op.key % kKeyStride, 0u) << "inserts use gap keys";
  }
  EXPECT_GT(inserts, 300);
}

TEST(WorkloadMixTest, OriginalYcsbPresets) {
  EXPECT_DOUBLE_EQ(OriginalYcsbA().point, 0.50);
  EXPECT_DOUBLE_EQ(OriginalYcsbA().update, 0.50);
  EXPECT_DOUBLE_EQ(OriginalYcsbB().point, 0.95);
  EXPECT_DOUBLE_EQ(OriginalYcsbB().update, 0.05);
}

TEST(WorkloadGeneratorTest, UpdatesTargetExistingKeys) {
  WorkloadGenerator gen(OriginalYcsbA(), 5000);
  Rng rng(8);
  int updates = 0;
  for (int i = 0; i < 2000; ++i) {
    const Operation op = gen.Next(rng);
    if (op.type != OpType::kUpdate) continue;
    updates++;
    EXPECT_EQ(op.key % kKeyStride, 0u) << "updates hit dataset keys";
  }
  EXPECT_NEAR(updates, 1000, 100);
}

TEST(WorkloadGeneratorTest, ClusteredZipfStaysAtTheLowEnd) {
  WorkloadGenerator clustered(WorkloadA(), 100000,
                              RequestDistribution::kZipfianClustered, 0.99);
  Rng rng(9);
  uint64_t low_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (clustered.Next(rng).key < 100 * kKeyStride) low_hits++;
  }
  // The hot ranks map to the smallest keys: a large share lands in the
  // first 0.1% of the key space.
  EXPECT_GT(low_hits, static_cast<uint64_t>(0.3 * n));
}

TEST(WorkloadGeneratorTest, ZipfianConcentratesRequests) {
  WorkloadGenerator uniform(WorkloadA(), 100000,
                            RequestDistribution::kUniform);
  WorkloadGenerator zipf(WorkloadA(), 100000, RequestDistribution::kZipfian,
                         0.99);
  Rng rng(7);
  std::map<btree::Key, int> ucounts;
  std::map<btree::Key, int> zcounts;
  for (int i = 0; i < 50000; ++i) {
    ucounts[uniform.Next(rng).key]++;
    zcounts[zipf.Next(rng).key]++;
  }
  int umax = 0;
  int zmax = 0;
  for (auto& [k, c] : ucounts) umax = std::max(umax, c);
  for (auto& [k, c] : zcounts) zmax = std::max(zmax, c);
  EXPECT_GT(zmax, 20 * umax) << "zipf must concentrate on hot keys";
}

// ---- Partitioner ------------------------------------------------------------

TEST(PartitionerTest, UniformRangeBoundaries) {
  const auto data = GenerateDataset(1000);
  index::Partitioner part(index::PartitionKind::kRange, 4);
  part.FitBoundaries(data, {});
  int counts[4] = {0, 0, 0, 0};
  for (const KV& kv : data) counts[part.ServerFor(kv.key)]++;
  for (int c : counts) EXPECT_NEAR(c, 250, 10);
}

TEST(PartitionerTest, SkewedWeightsFollowPaperSetup) {
  const auto data = GenerateDataset(10000);
  index::Partitioner part(index::PartitionKind::kRange, 4);
  const std::vector<double> weights = {0.80, 0.12, 0.05, 0.03};
  part.FitBoundaries(data, weights);
  int counts[4] = {0, 0, 0, 0};
  for (const KV& kv : data) counts[part.ServerFor(kv.key)]++;
  EXPECT_NEAR(counts[0], 8000, 100);
  EXPECT_NEAR(counts[1], 1200, 100);
  EXPECT_NEAR(counts[2], 500, 100);
  EXPECT_NEAR(counts[3], 300, 100);
}

TEST(PartitionerTest, HashScatterAndFanout) {
  index::Partitioner part(index::PartitionKind::kHash, 4);
  int counts[4] = {0, 0, 0, 0};
  for (uint64_t k = 0; k < 10000; ++k) counts[part.ServerFor(k * 8)]++;
  for (int c : counts) EXPECT_NEAR(c, 2500, 300);
  // Range queries must fan out to all servers.
  EXPECT_EQ(part.ServersFor(10, 20).size(), 4u);
}

TEST(PartitionerTest, RangeServersForSpansOnlyTouchedPartitions) {
  const auto data = GenerateDataset(1000);
  index::Partitioner part(index::PartitionKind::kRange, 4);
  part.FitBoundaries(data, {});
  const auto one = part.ServersFor(0, 10);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
  const auto all = part.ServersFor(0, 1000 * kKeyStride);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_TRUE(part.ServersFor(5, 5).empty());
}

// ---- Runner -----------------------------------------------------------------

TEST(RunnerTest, MeasuresClosedLoopThroughput) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  nam::Cluster cluster(fc, 64ull << 20);
  index::IndexConfig ic;
  ic.page_size = 1024;
  index::CoarseGrainedIndex index(cluster, ic);
  const uint64_t keys = 20000;
  ASSERT_TRUE(index.BulkLoad(GenerateDataset(keys)).ok());

  RunConfig rc;
  rc.num_clients = 8;
  rc.warmup = 1 * kMillisecond;
  rc.duration = 10 * kMillisecond;
  rc.mix = WorkloadA();
  const RunResult result = RunWorkload(cluster, index, keys, rc);

  EXPECT_GT(result.ops(), 100u);
  EXPECT_NEAR(result.seconds, 0.010, 1e-9);
  EXPECT_GT(result.ops_per_sec, 10000.0);
  EXPECT_GT(result.latency.count(), 0u);
  EXPECT_GT(result.server_bytes, 0u);
  EXPECT_EQ(result.per_server_bytes.size(), 2u);
  EXPECT_GT(result.round_trips(), 0u);
}

TEST(RunnerTest, DeterministicAcrossRuns) {
  auto run = [] {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 2;
    nam::Cluster cluster(fc, 64ull << 20);
    index::IndexConfig ic;
    index::FineGrainedIndex index(cluster, ic);
    const uint64_t keys = 10000;
    EXPECT_TRUE(index.BulkLoad(GenerateDataset(keys)).ok());
    RunConfig rc;
    rc.num_clients = 4;
    rc.warmup = kMillisecond;
    rc.duration = 5 * kMillisecond;
    rc.mix = WorkloadC();
    return RunWorkload(cluster, index, keys, rc);
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.ops(), b.ops());
  EXPECT_EQ(a.server_bytes, b.server_bytes);
  EXPECT_EQ(a.round_trips(), b.round_trips());
}

// Cells (one cluster, one index, one run) share no state, so independent
// cells may run on separate host threads and each must reproduce its serial
// result exactly. This is the only test that starts threads, so it is what
// the TSan build checks. sim::FramePool keeps thread_local free lists that
// sanitizer builds compile out (src/sim/task.h); the plain build's run of
// this test is the one that puts the pool under several threads.
TEST(RunnerTest, IndependentCellsMatchAcrossThreads) {
  struct Cell {
    uint64_t ops = 0;
    uint64_t server_bytes = 0;
    uint64_t round_trips = 0;
    double p99 = 0;
  };
  auto run = [](int design) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 2;
    nam::Cluster cluster(fc, 64ull << 20);
    index::IndexConfig ic;
    std::unique_ptr<index::DistributedIndex> index;
    switch (design) {
      case 0:
        index = std::make_unique<index::CoarseGrainedIndex>(cluster, ic);
        break;
      case 1:
        index = std::make_unique<index::CoarseOneSidedIndex>(cluster, ic);
        break;
      case 2:
        index = std::make_unique<index::FineGrainedIndex>(cluster, ic);
        break;
      default:
        index = std::make_unique<index::HybridIndex>(cluster, ic);
        break;
    }
    const uint64_t keys = 10000;
    EXPECT_TRUE(index->BulkLoad(GenerateDataset(keys)).ok());
    RunConfig rc;
    rc.num_clients = 4;
    rc.warmup = kMillisecond;
    rc.duration = 5 * kMillisecond;
    rc.mix = WorkloadD();
    const RunResult r = RunWorkload(cluster, *index, keys, rc);
    return Cell{r.ops(), r.server_bytes, r.round_trips(),
                r.latency.Quantile(0.99)};
  };
  constexpr int kDesigns = 4;
  std::array<Cell, kDesigns> serial;
  for (int d = 0; d < kDesigns; ++d) serial[d] = run(d);

  std::array<Cell, kDesigns> threaded;
  std::vector<std::thread> threads;
  for (int d = 0; d < kDesigns; ++d) {
    threads.emplace_back([&run, &threaded, d] { threaded[d] = run(d); });
  }
  for (std::thread& t : threads) t.join();

  for (int d = 0; d < kDesigns; ++d) {
    EXPECT_GT(serial[d].ops, 0u) << "design " << d;
    EXPECT_EQ(threaded[d].ops, serial[d].ops) << "design " << d;
    EXPECT_EQ(threaded[d].server_bytes, serial[d].server_bytes)
        << "design " << d;
    EXPECT_EQ(threaded[d].round_trips, serial[d].round_trips)
        << "design " << d;
    EXPECT_EQ(threaded[d].p99, serial[d].p99) << "design " << d;
  }
}

TEST(RunnerTest, OpTracingRecordsOutliersWithoutPerturbingTheRun) {
  auto run = [](bool trace) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 2;
    nam::Cluster cluster(fc, 64ull << 20);
    index::IndexConfig ic;
    index::FineGrainedIndex index(cluster, ic);
    const uint64_t keys = 10000;
    EXPECT_TRUE(index.BulkLoad(GenerateDataset(keys)).ok());
    RunConfig rc;
    rc.num_clients = 4;
    rc.warmup = kMillisecond;
    rc.duration = 5 * kMillisecond;
    rc.mix = WorkloadA();  // mutations too, so insert/update spans appear
    rc.trace_ops = trace;
    return RunWorkload(cluster, index, keys, rc);
  };
  const RunResult plain = run(false);
  const RunResult traced = run(true);

  // Tracing is pure host-side observation: virtual time and every counter
  // must be identical to the untraced run.
  EXPECT_EQ(traced.ops(), plain.ops());
  EXPECT_EQ(traced.round_trips(), plain.round_trips());
  EXPECT_EQ(traced.server_bytes, plain.server_bytes);

  EXPECT_TRUE(plain.trace_outliers.empty());
  ASSERT_FALSE(traced.trace_outliers.empty());
  // The dump names the runner's op labels and verb-level events.
  EXPECT_NE(traced.trace_outliers.find("point"), std::string::npos);
  EXPECT_NE(traced.trace_outliers.find("server="), std::string::npos);
}

TEST(RunnerTest, MoreClientsMoreThroughputUntilSaturation) {
  auto throughput = [](uint32_t clients) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 2;
    fc.workers_per_server = 2;
    nam::Cluster cluster(fc, 64ull << 20);
    index::IndexConfig ic;
    index::CoarseGrainedIndex index(cluster, ic);
    const uint64_t keys = 20000;
    EXPECT_TRUE(index.BulkLoad(GenerateDataset(keys)).ok());
    RunConfig rc;
    rc.num_clients = clients;
    rc.warmup = kMillisecond;
    rc.duration = 10 * kMillisecond;
    return RunWorkload(cluster, index, keys, rc).ops_per_sec;
  };
  const double t1 = throughput(1);
  const double t8 = throughput(8);
  const double t64 = throughput(64);
  EXPECT_GT(t8, 2 * t1) << "scaling region";
  // 64 clients on 4 workers: saturated, not collapsing.
  EXPECT_GT(t64, 0.5 * t8);
}

TEST(RunnerTest, PipelineLanesOverlapClients) {
  // pipeline_depth > 1 runs extra closed-loop lanes per client on every
  // design, so independent operations overlap: one-sided READs on the wire,
  // RPCs in the servers' worker pools.
  auto run = [](bool coarse, uint32_t depth) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 2;
    nam::Cluster cluster(fc, 64ull << 20);
    index::IndexConfig ic;
    std::unique_ptr<index::DistributedIndex> index;
    if (coarse) {
      index = std::make_unique<index::CoarseGrainedIndex>(cluster, ic);
    } else {
      index = std::make_unique<index::FineGrainedIndex>(cluster, ic);
    }
    const uint64_t keys = 10000;
    EXPECT_TRUE(index->BulkLoad(GenerateDataset(keys)).ok());
    RunConfig rc;
    rc.num_clients = 2;
    rc.warmup = kMillisecond;
    rc.duration = 10 * kMillisecond;
    rc.mix = WorkloadC();
    rc.pipeline_depth = depth;
    return RunWorkload(cluster, *index, keys, rc);
  };
  for (const bool coarse : {false, true}) {
    SCOPED_TRACE(coarse ? "coarse-grained" : "fine-grained");
    const RunResult solo = run(coarse, 1);
    const RunResult piped = run(coarse, 4);
    ASSERT_GT(solo.ops(), 100u);
    EXPECT_GT(piped.ops(), 2 * solo.ops())
        << "extra lanes must overlap independent operations";
    EXPECT_EQ(piped.failed_ops(), 0u);
  }
}

// Exact results of the closed-loop shapes the runner supports: MultiGet
// gathering on a one-sided and an RPC design, several lanes per client on
// one-sided and hybrid designs, and the plain loop on an RPC design. Every
// figure is deterministic; a runner change that keeps these shapes must
// reproduce each one exactly.
TEST(RunnerTest, LoopShapesReproduceExactly) {
  enum class Kind { kCoarse, kFine, kHybrid };
  struct Shape {
    const char* name;
    Kind kind;
    uint32_t multiget_batch;
    uint32_t pipeline_depth;
    bool speculative;
    bool mixed;  // every op kind, so each flushes a gathered batch
    uint64_t ops;
    uint64_t failed;
    uint64_t round_trips;
    uint64_t server_bytes;
    double p50;
    double p99;
  };
  const Shape shapes[] = {
      {"fg_multiget8_speculative", Kind::kFine, 8, 1, true, true, 4966, 14,
       11038, 2303024, 15734.700111228993, 52239.547258134764},
      {"cg_multiget8", Kind::kCoarse, 8, 1, false, true, 3017, 2, 2837,
       240808, 34171.333196863357, 96439.431336245922},
      {"fg_depth4", Kind::kFine, 1, 4, false, true, 2508, 2, 14597, 3240944,
       61845.097643229041, 130910.53751848395},
      {"hybrid_depth4", Kind::kHybrid, 1, 4, false, true, 5907, 20, 19465,
       2888360, 25407.470600657954, 56008.080787721425},
      {"cg_depth1_d", Kind::kCoarse, 1, 1, false, false, 2374, 0, 2908,
       133584, 15437.502313642155, 33726.187754473096},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    rdma::FabricConfig fc;
    fc.num_memory_servers = 4;
    nam::Cluster cluster(fc, 64ull << 20);
    index::IndexConfig ic;
    ic.page_size = 256;
    if (shape.speculative) {
      ic.client_cache_pages = 4096;
      ic.client_cache_ttl = kSecond;
      ic.speculative_descent = true;
    }
    std::unique_ptr<index::DistributedIndex> index;
    switch (shape.kind) {
      case Kind::kCoarse:
        index = std::make_unique<index::CoarseGrainedIndex>(cluster, ic);
        break;
      case Kind::kFine:
        index = std::make_unique<index::FineGrainedIndex>(cluster, ic);
        break;
      case Kind::kHybrid:
        index = std::make_unique<index::HybridIndex>(cluster, ic);
        break;
    }
    const uint64_t keys = 10000;
    ASSERT_TRUE(index->BulkLoad(GenerateDataset(keys)).ok());
    RunConfig rc;
    rc.num_clients = 8;
    rc.warmup = kMillisecond;
    rc.duration = 5 * kMillisecond;
    rc.multiget_batch = shape.multiget_batch;
    rc.pipeline_depth = shape.pipeline_depth;
    if (shape.mixed) {
      rc.mix.point = 0.70;
      rc.mix.range = 0.05;
      rc.mix.insert = 0.10;
      rc.mix.update = 0.10;
      rc.mix.remove = 0.05;
    } else {
      rc.mix = WorkloadD();
    }
    const RunResult r = RunWorkload(cluster, *index, keys, rc);
    EXPECT_EQ(r.ops(), shape.ops);
    EXPECT_EQ(r.failed_ops(), shape.failed);
    EXPECT_EQ(r.round_trips(), shape.round_trips);
    EXPECT_EQ(r.server_bytes, shape.server_bytes);
    EXPECT_EQ(r.latency.Quantile(0.5), shape.p50);
    EXPECT_EQ(r.latency.Quantile(0.99), shape.p99);
  }
}

}  // namespace
}  // namespace namtree::ycsb
