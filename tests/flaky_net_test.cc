// Flaky-network fault-domain tests (docs/fault_model.md §8): under seeded
// lossy/dup/delayed verb injection every design must stay exactly correct —
// a differential replay against a std::multimap must match on all 8
// schedule seeds with a clean verb audit and no exhausted retry budgets —
// and the targeted ambiguity cases must resolve the way the protocol
// documents: a lost-but-landed lock CAS is claimed via the holder-stamp
// read-back, a lost unlock FAA is never double-released, a duplicated
// release FAA trips the auditor, and a partitioned link surfaces kTimedOut
// (distinct from the kUnavailable of a dead server) until it heals.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "btree/page.h"
#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/inspector.h"
#include "index/leaf_level.h"
#include "index/remote_ops.h"
#include "nam/cluster.h"
#include "rdma/audit.h"
#include "ycsb/runner.h"
#include "ycsb/workload.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using btree::PageView;
using btree::Value;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

constexpr uint32_t kPage = 256;

// The acceptance-gate fault rates: 1% drops, 0.5% duplicates, delay spikes.
rdma::FabricConfig FlakyConfig(uint64_t seed) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  fc.drop_prob = 0.01;
  fc.dup_prob = 0.005;
  fc.delay_jitter_ns = 2 * kMicrosecond;
  fc.net_fault_seed = 0x51ED270Bu + seed;
  fc.schedule_seed = seed;  // 0 = legacy FIFO tie-break, others permute
  // Generous RPC resend budget: the differential replay asserts that no
  // operation fails, so the per-call loss probability must be negligible.
  fc.rpc_max_retries = 6;
  return fc;
}

std::vector<KV> MakeData(uint64_t n) {
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 2, i});
  return data;
}

struct Op {
  enum Kind { kInsert, kDelete, kLookup, kScan, kUpdate } kind;
  Key key = 0;
  Key hi = 0;
  Value value = 0;
};

std::vector<Op> MakeTrace(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Op> trace;
  for (int i = 0; i < n; ++i) {
    Op op;
    const double a = rng.NextDouble();
    op.key = rng.NextBelow(3000);
    if (a < 0.35) {
      op.kind = Op::kInsert;
      op.value = rng.Next() >> 1;
    } else if (a < 0.50) {
      op.kind = Op::kDelete;
    } else if (a < 0.60) {
      op.kind = Op::kUpdate;
      op.value = rng.Next() >> 1;
    } else if (a < 0.85) {
      op.kind = Op::kLookup;
    } else {
      op.kind = Op::kScan;
      op.hi = op.key + 1 + rng.NextBelow(150);
    }
    trace.push_back(op);
  }
  return trace;
}

// Replays the trace against the index and a multimap model: every result
// must match exactly — a flaky fabric may slow operations down, never
// corrupt them or make them lie. Takes the trace by value: the caller
// hands in a temporary that would die before the coroutine first resumes.
Task<> Replay(DistributedIndex& index, ClientContext& ctx,
              std::vector<KV> loaded, std::vector<Op> trace) {
  std::multimap<Key, Value> model;
  for (const KV& kv : loaded) model.emplace(kv.key, kv.value);
  for (const Op& op : trace) {
    switch (op.kind) {
      case Op::kInsert: {
        EXPECT_TRUE((co_await index.Insert(ctx, op.key, op.value)).ok());
        model.emplace(op.key, op.value);
        break;
      }
      case Op::kDelete: {
        const bool deleted = (co_await index.Delete(ctx, op.key)).ok();
        auto it = model.lower_bound(op.key);
        const bool exists = it != model.end() && it->first == op.key;
        EXPECT_EQ(deleted, exists) << "delete(" << op.key << ")";
        if (exists) model.erase(it);
        break;
      }
      case Op::kUpdate: {
        const Status s = co_await index.Update(ctx, op.key, op.value);
        auto it = model.lower_bound(op.key);
        const bool exists = it != model.end() && it->first == op.key;
        EXPECT_EQ(s.ok(), exists) << "update(" << op.key << ")";
        if (exists) it->second = op.value;
        break;
      }
      case Op::kLookup: {
        const LookupResult r = co_await index.Lookup(ctx, op.key);
        EXPECT_TRUE(r.status.ok()) << r.status.ToString();
        EXPECT_EQ(r.found, model.count(op.key) > 0)
            << "lookup(" << op.key << ") on " << index.name();
        if (r.found) {
          bool matches = false;
          for (auto [it, end] = model.equal_range(op.key); it != end; ++it) {
            matches |= (it->second == r.value);
          }
          EXPECT_TRUE(matches) << "lookup(" << op.key << ") stale value";
        }
        break;
      }
      case Op::kScan: {
        Status status;
        const uint64_t n =
            co_await index.Scan(ctx, op.key, op.hi, nullptr, &status);
        EXPECT_TRUE(status.ok()) << status.ToString();
        const uint64_t expected = static_cast<uint64_t>(std::distance(
            model.lower_bound(op.key), model.lower_bound(op.hi)));
        EXPECT_EQ(n, expected)
            << "scan[" << op.key << ", " << op.hi << ") on " << index.name();
        break;
      }
    }
  }
}

template <typename Index>
void RunFlakyDifferential(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Cluster cluster(FlakyConfig(seed), 64 << 20);
  IndexConfig config;
  config.page_size = kPage;
  config.head_node_interval = 4;
  Index index(cluster, config);
  const uint64_t keys = 1500;
  ASSERT_TRUE(index.BulkLoad(MakeData(keys)).ok());

  ClientContext ctx(0, cluster.fabric(), kPage, seed + 1);
  Spawn(cluster.simulator(),
        Replay(index, ctx, MakeData(keys), MakeTrace(seed * 7 + 1, 300)));
  cluster.simulator().Run();

  // Zero sanctioned-shape violations: every lost atomic must have been
  // resolved by a read-back before any re-post.
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  // No retry budget may run dry at these fault rates (the acceptance gate).
  EXPECT_EQ(cluster.fabric().metrics().Value("retry.exhausted"), 0u);
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

template <typename Index>
void RunFlakyDifferentialMatrix() {
  for (uint64_t seed = 0; seed < 8; ++seed) RunFlakyDifferential<Index>(seed);
}

TEST(FlakyNetDifferentialTest, FineGrainedExactOnAllSeeds) {
  RunFlakyDifferentialMatrix<FineGrainedIndex>();
}

TEST(FlakyNetDifferentialTest, HybridExactOnAllSeeds) {
  RunFlakyDifferentialMatrix<HybridIndex>();
}

TEST(FlakyNetDifferentialTest, CoarseGrainedExactOnAllSeeds) {
  RunFlakyDifferentialMatrix<CoarseGrainedIndex>();
}

TEST(FlakyNetDifferentialTest, CoarseOneSidedExactOnAllSeeds) {
  RunFlakyDifferentialMatrix<CoarseOneSidedIndex>();
}

// Multi-client YCSB under the same fault rates: progress, clean audit,
// structural soundness, and zero exhausted retry budgets.
template <typename Index>
void RunFlakyYcsb(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Cluster cluster(FlakyConfig(seed), 64 << 20);
  IndexConfig config;
  config.page_size = kPage;
  config.head_node_interval = 4;
  Index index(cluster, config);
  const uint64_t keys = 2000;
  ASSERT_TRUE(index.BulkLoad(MakeData(keys)).ok());

  ycsb::RunConfig run;
  run.num_clients = 8;
  run.warmup = 0;
  run.duration = 8 * kMillisecond;
  run.seed = seed;
  ycsb::WorkloadMix mix;
  mix.point = 0.35;
  mix.range = 0.10;
  mix.insert = 0.30;
  mix.update = 0.15;
  mix.remove = 0.10;
  mix.range_selectivity = 0.01;
  run.mix = mix;
  const auto result = ycsb::RunWorkload(cluster, index, keys, run);

  EXPECT_GT(result.ops(), 100u);
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  EXPECT_EQ(cluster.fabric().metrics().Value("retry.exhausted"), 0u);
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(FlakyNetYcsbTest, FineGrainedSurvives) {
  RunFlakyYcsb<FineGrainedIndex>(3);
  RunFlakyYcsb<FineGrainedIndex>(7);
}

TEST(FlakyNetYcsbTest, HybridSurvives) {
  RunFlakyYcsb<HybridIndex>(3);
  RunFlakyYcsb<HybridIndex>(7);
}

TEST(FlakyNetYcsbTest, CoarseGrainedSurvives) {
  RunFlakyYcsb<CoarseGrainedIndex>(3);
  RunFlakyYcsb<CoarseGrainedIndex>(7);
}

TEST(FlakyNetYcsbTest, CoarseOneSidedSurvives) {
  RunFlakyYcsb<CoarseOneSidedIndex>(3);
  RunFlakyYcsb<CoarseOneSidedIndex>(7);
}

}  // namespace
}  // namespace namtree::index

// ---- Targeted ambiguity resolution --------------------------------------

namespace namtree::index {
namespace {

using btree::IsLocked;
using btree::PageView;
using btree::VersionOf;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

using Kind = rdma::FabricConfig::VerbFaultPoint::Kind;

// One leaf page on server 0; verb post-order of the drivers below:
//   #0 READ (LockPage's unlocked read)   #1 CAS (lock acquire)
//   LockInsertUnlock: #2 the whole {page WRITE, unlock WRITE} doorbell
//   LockRelease:      #2 FAA (UnlockPage's release)
struct AmbiguityRig {
  explicit AmbiguityRig(rdma::FabricConfig fc) : cluster(fc, 1 << 20) {
    ptr = cluster.memory_server(0).region().AllocateLocal(kPage);
    PageView view(cluster.memory_server(0).region().at(ptr.offset()), kPage);
    view.InitLeaf(btree::kInfinityKey, 0);
  }

  static rdma::FabricConfig Config() {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 2;
    return fc;
  }

  PageView RemoteView() {
    return PageView(cluster.memory_server(0).region().at(ptr.offset()),
                    kPage);
  }

  Cluster cluster;
  rdma::RemotePtr ptr;
};

Task<> LockInsertUnlock(RemoteOps ops, rdma::RemotePtr ptr) {
  uint8_t* buf = ops.ctx().page_a();
  EXPECT_TRUE((co_await ops.LockPage(ptr, buf)).ok());
  PageView view(buf, kPage);
  EXPECT_TRUE(view.LeafInsert(7, 70));
  EXPECT_TRUE((co_await ops.WriteUnlockPage(ptr, buf)).ok());
}

Task<> LockRelease(RemoteOps ops, rdma::RemotePtr ptr) {
  uint8_t* buf = ops.ctx().page_a();
  EXPECT_TRUE((co_await ops.LockPage(ptr, buf)).ok());
  EXPECT_TRUE((co_await ops.UnlockPage(ptr)).ok());
}

TEST(FlakyAmbiguityTest, LostButLandedLockCasClaimedViaStampReadBack) {
  // The CAS executes but its completion is dropped: the holder-stamp
  // read-back must prove the swap landed, so the client owns the lock
  // without re-posting the CAS (a blind re-CAS of its own locked word is
  // the audited anti-pattern).
  auto fc = AmbiguityRig::Config();
  fc.verb_fault_points = {{0, 1, Kind::kDropCompletion}};
  AmbiguityRig rig(fc);
  ClientContext ctx(0, rig.cluster.fabric(), kPage, 1);
  Spawn(rig.cluster.simulator(), LockInsertUnlock(RemoteOps(ctx), rig.ptr));
  rig.cluster.simulator().Run();

  PageView view = rig.RemoteView();
  EXPECT_FALSE(IsLocked(view.version_word()));
  EXPECT_EQ(VersionOf(view.version_word()), 2u);  // one lock/unlock cycle
  EXPECT_EQ(view.count(), 1u);
  EXPECT_EQ(rig.cluster.fabric().metrics().Value(
                "fabric.net.dropped_completions"),
            1u);
  EXPECT_TRUE(rig.cluster.fabric().CheckAuditClean().ok())
      << rig.cluster.fabric().CheckAuditClean().ToString();
}

TEST(FlakyAmbiguityTest, LostUnlockFaaCompletionNotDoubleReleased) {
  // The release FAA lands but its pre-image is lost: the version-word
  // read-back shows the lock already released, so the client must NOT add
  // again (a second +1 would corrupt the version protocol).
  auto fc = AmbiguityRig::Config();
  fc.verb_fault_points = {{0, 2, Kind::kDropCompletion}};
  AmbiguityRig rig(fc);
  ClientContext ctx(0, rig.cluster.fabric(), kPage, 1);
  Spawn(rig.cluster.simulator(), LockRelease(RemoteOps(ctx), rig.ptr));
  rig.cluster.simulator().Run();

  PageView view = rig.RemoteView();
  EXPECT_FALSE(IsLocked(view.version_word()));
  EXPECT_EQ(VersionOf(view.version_word()), 2u)
      << "the lost-completion FAA was re-posted despite having landed";
  EXPECT_EQ(view.count(), 0u);
  EXPECT_TRUE(rig.cluster.fabric().CheckAuditClean().ok())
      << rig.cluster.fabric().CheckAuditClean().ToString();
}

TEST(FlakyAmbiguityTest, DroppedUnlockFaaVerbIsRepostedAfterReadBack) {
  // The release FAA never reaches the NIC: the read-back shows the word
  // still locked by us, sanctioning exactly one re-post.
  auto fc = AmbiguityRig::Config();
  fc.verb_fault_points = {{0, 2, Kind::kDropVerb}};
  AmbiguityRig rig(fc);
  ClientContext ctx(0, rig.cluster.fabric(), kPage, 1);
  Spawn(rig.cluster.simulator(), LockRelease(RemoteOps(ctx), rig.ptr));
  rig.cluster.simulator().Run();

  PageView view = rig.RemoteView();
  EXPECT_FALSE(IsLocked(view.version_word()));
  EXPECT_EQ(VersionOf(view.version_word()), 2u);
  EXPECT_EQ(view.count(), 0u);
  EXPECT_GE(ctx.verb_retry_attempts, 1u) << "the lost FAA was never re-posted";
  EXPECT_TRUE(rig.cluster.fabric().CheckAuditClean().ok())
      << rig.cluster.fabric().CheckAuditClean().ToString();
}

TEST(FlakyAmbiguityTest, UnsanctionedDuplicateReleaseFaaTripsAuditor) {
  // A forced NIC-level duplicate of the release FAA adds twice: the second
  // effect is a release without a matching lock and the auditor must flag
  // it (FAA duplication is exactly what the retry discipline exists to
  // avoid — this pins the detector that keeps everyone honest).
  auto fc = AmbiguityRig::Config();
  fc.verb_fault_points = {{0, 2, Kind::kDuplicate}};
  AmbiguityRig rig(fc);
  ClientContext ctx(0, rig.cluster.fabric(), kPage, 1);
  Spawn(rig.cluster.simulator(), LockRelease(RemoteOps(ctx), rig.ptr));
  rig.cluster.simulator().Run();

  EXPECT_EQ(rig.cluster.fabric().metrics().Value("fabric.net.duplicates"),
            1u);
  if (rig.cluster.fabric().auditor() != nullptr) {  // compiled in
    EXPECT_FALSE(rig.cluster.fabric().CheckAuditClean().ok())
        << "a duplicated release FAA must be reported as a violation";
  }
}

Task<> ReadThroughPartition(RemoteOps ops, rdma::RemotePtr ptr,
                            Status* first, Status* second) {
  uint8_t* buf = ops.ctx().page_a();
  *first = co_await ops.ReadPage(ptr, buf);
  ops.fabric().HealLink(ops.ctx().client_id(), ptr.server_id());
  *second = co_await ops.ReadPage(ptr, buf);
}

TEST(FlakyPartitionTest, PartitionedLinkTimesOutThenHeals) {
  // A severed (client, server) link drops every verb: the bounded verb
  // budget must surface kTimedOut — not kUnavailable, the server is alive —
  // and the link must work again after HealLink.
  AmbiguityRig rig(AmbiguityRig::Config());
  rig.cluster.fabric().PartitionLink(0, 0);
  ClientContext ctx(0, rig.cluster.fabric(), kPage, 1);
  Status first;
  Status second;
  Spawn(rig.cluster.simulator(),
        ReadThroughPartition(RemoteOps(ctx), rig.ptr, &first, &second));
  rig.cluster.simulator().Run();

  EXPECT_TRUE(first.IsTimedOut()) << first.ToString();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_GE(rig.cluster.fabric().metrics().Value(
                "fabric.net.partitioned_drops"),
            8u);
  EXPECT_EQ(rig.cluster.fabric().metrics().Value("retry.exhausted", "domain",
                                                 "verb"),
            1u);
}

// ---- Scan degraded-status reporting (satellite: kTimedOut vs
// kUnavailable through LookupResult-style status out-params) --------------

Task<> ScanWithStatus(RemoteOps ops, rdma::RemotePtr first, uint64_t* count,
                      Status* status) {
  *count = co_await LeafLevel::ScanChain(ops, first, 0, btree::kInfinityKey,
                                         nullptr, status, {});
}

struct ChainRig {
  ChainRig() : cluster(Config(), 16 << 20) {
    IndexConfig config;
    config.page_size = kPage;
    config.head_node_interval = 0;
    std::vector<btree::KV> data;
    for (uint64_t i = 0; i < 500; ++i) data.push_back({i * 2, i});
    EXPECT_TRUE(
        LeafLevel::Build(cluster.fabric(), data, config, &built).ok());
  }

  static rdma::FabricConfig Config() {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 2;
    return fc;
  }

  Cluster cluster;
  LeafLevel::BuildResult built;
};

TEST(FlakyScanStatusTest, PartitionedChainReportsTimedOut) {
  // The chain alternates servers 0/1; severing the link to server 1 makes
  // the scan truncate with kTimedOut (the server is alive, the path isn't).
  ChainRig rig;
  rig.cluster.fabric().PartitionLink(0, 1);
  ClientContext ctx(0, rig.cluster.fabric(), kPage, 1);
  uint64_t count = 0;
  Status status;
  Spawn(rig.cluster.simulator(),
        ScanWithStatus(RemoteOps(ctx), rig.built.first, &count, &status));
  rig.cluster.simulator().Run();

  EXPECT_TRUE(status.IsTimedOut()) << status.ToString();
  EXPECT_LT(count, 500u);
}

TEST(FlakyScanStatusTest, DeadServerChainReportsUnavailable) {
  // A crashed server (R=1, no replica to promote) truncates the same scan
  // with kUnavailable — the FailureBreakdown distinction under test.
  ChainRig rig;
  rig.cluster.fabric().KillServer(1);
  ClientContext ctx(0, rig.cluster.fabric(), kPage, 1);
  uint64_t count = 0;
  Status status;
  Spawn(rig.cluster.simulator(),
        ScanWithStatus(RemoteOps(ctx), rig.built.first, &count, &status));
  rig.cluster.simulator().Run();

  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_LT(count, 500u);
}

TEST(FlakyScanStatusTest, CleanScanReportsOk) {
  ChainRig rig;
  ClientContext ctx(0, rig.cluster.fabric(), kPage, 1);
  uint64_t count = 0;
  Status status = Status::Unavailable("never set");
  Spawn(rig.cluster.simulator(),
        ScanWithStatus(RemoteOps(ctx), rig.built.first, &count, &status));
  rig.cluster.simulator().Run();

  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(count, 500u);
}

}  // namespace
}  // namespace namtree::index
