// Fault-injection tests: the protocols must stay correct (differential
// checks + structural invariants) under pathological timing — heavy wire
// jitter and straggler memory servers — and the UD transport option must
// preserve RPC semantics while changing only costs. The second half
// injects crash faults (FabricConfig::crash_points / Fabric::KillClient):
// survivors must keep making progress, orphaned locks must be reclaimed
// through the lease/steal protocol (docs/fault_model.md), RPCs must
// respect their deadline, and the structure must inspect sound after a
// recovery sweep.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "index/coarse_one_sided.h"
#include "index/inspector.h"
#include "index/remote_ops.h"
#include "nam/cluster.h"
#include "rdma/audit.h"
#include "ycsb/runner.h"
#include "ycsb/workload.h"

namespace namtree::index {
namespace {

using btree::KV;
using nam::Cluster;

std::vector<KV> MakeData(uint64_t n) {
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 2, i});
  return data;
}

ycsb::WorkloadMix StressMix() {
  ycsb::WorkloadMix mix;
  mix.point = 0.30;
  mix.range = 0.10;
  mix.insert = 0.35;
  mix.update = 0.10;
  mix.remove = 0.15;
  mix.range_selectivity = 0.01;
  return mix;
}

struct StressOutcome {
  uint64_t ops = 0;
  uint64_t live_entries = 0;
  bool sound = false;
  std::string report;
};

template <typename Index>
StressOutcome RunStress(const rdma::FabricConfig& fabric_config,
                        uint64_t seed) {
  Cluster cluster(fabric_config, 64 << 20);
  IndexConfig config;
  config.page_size = 256;
  config.head_node_interval = 4;
  Index index(cluster, config);
  const uint64_t keys = 4000;
  EXPECT_TRUE(index.BulkLoad(MakeData(keys)).ok());

  ycsb::RunConfig run;
  run.num_clients = 16;
  run.warmup = 0;
  run.duration = 25 * kMillisecond;
  run.seed = seed;
  run.gc_interval = 6 * kMillisecond;
  run.mix = StressMix();
  const auto result = ycsb::RunWorkload(cluster, index, keys, run);

  // Pathological timing (jitter, stragglers) stresses protocol
  // interleavings — exactly what the verb auditor is there to police.
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();

  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  StressOutcome outcome;
  outcome.ops = result.ops();
  outcome.live_entries = report.live_entries;
  outcome.sound = report.ok();
  outcome.report = report.ToString();
  return outcome;
}

class JitterTest : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Jitters, JitterTest,
                         ::testing::Values(0.5, 2.0, 8.0));

TEST_P(JitterTest, FineGrainedSurvivesWireJitter) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  fc.latency_jitter = GetParam();
  fc.jitter_seed = 0xABCDEF;
  const auto outcome = RunStress<FineGrainedIndex>(fc, 11);
  EXPECT_GT(outcome.ops, 100u);
  EXPECT_TRUE(outcome.sound) << outcome.report;
}

TEST_P(JitterTest, HybridSurvivesWireJitter) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  fc.latency_jitter = GetParam();
  const auto outcome = RunStress<HybridIndex>(fc, 12);
  EXPECT_GT(outcome.ops, 100u);
  EXPECT_TRUE(outcome.sound) << outcome.report;
}

TEST(StragglerTest, ProtocolsSurviveASlowServer) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  fc.server_slowdown = {1.0, 8.0, 1.0, 1.0};  // server 1 is 8x slower
  {
    const auto outcome = RunStress<FineGrainedIndex>(fc, 21);
    EXPECT_TRUE(outcome.sound) << outcome.report;
  }
  {
    const auto outcome = RunStress<CoarseGrainedIndex>(fc, 22);
    EXPECT_TRUE(outcome.sound) << outcome.report;
  }
  {
    const auto outcome = RunStress<HybridIndex>(fc, 23);
    EXPECT_TRUE(outcome.sound) << outcome.report;
  }
}

TEST(StragglerTest, StragglerHurtsCoarseGrainedThroughput) {
  auto throughput = [](std::vector<double> slowdown) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 4;
    fc.server_slowdown = std::move(slowdown);
    Cluster cluster(fc, 64 << 20);
    IndexConfig config;
    CoarseGrainedIndex index(cluster, config);
    const uint64_t keys = 50000;
    EXPECT_TRUE(index.BulkLoad(ycsb::GenerateDataset(keys)).ok());
    ycsb::RunConfig run;
    run.num_clients = 64;
    run.warmup = kMillisecond;
    run.duration = 10 * kMillisecond;
    return ycsb::RunWorkload(cluster, index, keys, run).ops_per_sec;
  };
  const double healthy = throughput({});
  const double degraded = throughput({1.0, 10.0, 1.0, 1.0});
  // A 10x straggler owns 1/4 of the key space: closed-loop throughput must
  // drop noticeably but not collapse to the straggler alone.
  EXPECT_LT(degraded, 0.8 * healthy);
  EXPECT_GT(degraded, 0.1 * healthy);
}

}  // namespace
}  // namespace namtree::index

namespace namtree::index {
namespace {

// Region exhaustion: when RDMA_ALLOC runs dry, one-sided inserts must fail
// cleanly with OutOfMemory and never corrupt the structure.
TEST(ResourceExhaustionTest, FineGrainedInsertsFailCleanlyWhenRegionsFill) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  // Tiny regions: the bulk load fits, split headroom does not.
  nam::Cluster cluster(fc, 96 * 1024);
  IndexConfig config;
  config.page_size = 256;
  config.head_node_interval = 0;
  FineGrainedIndex index(cluster, config);
  std::vector<btree::KV> data;
  for (uint64_t i = 0; i < 2500; ++i) data.push_back({i * 4, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  nam::ClientContext ctx(0, cluster.fabric(), config.page_size, 1);
  struct Driver {
    static sim::Task<> Go(FineGrainedIndex& index, nam::ClientContext& ctx,
                          uint64_t* ok_count, uint64_t* oom_count) {
      for (uint64_t k = 0; k < 10000; ++k) {
        const Status s = co_await index.Insert(ctx, k * 4 + 1, k);
        if (s.ok()) {
          (*ok_count)++;
        } else if (s.IsOutOfMemory()) {
          (*oom_count)++;
        } else {
          ADD_FAILURE() << "unexpected status " << s.ToString();
        }
      }
    }
  };
  uint64_t ok_count = 0;
  uint64_t oom_count = 0;
  sim::Spawn(cluster.simulator(), Driver::Go(index, ctx, &ok_count,
                                             &oom_count));
  cluster.simulator().Run();
  EXPECT_GT(ok_count, 0u);
  EXPECT_GT(oom_count, 0u) << "the region never filled; shrink it";

  // The index remains structurally sound and fully readable.
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
  struct Verify {
    static sim::Task<> Go(FineGrainedIndex& index, nam::ClientContext& ctx,
                          uint64_t expected_minimum) {
      const uint64_t n =
          co_await index.Scan(ctx, 0, btree::kInfinityKey, nullptr);
      EXPECT_GE(n, expected_minimum);
    }
  };
  sim::Spawn(cluster.simulator(), Verify::Go(index, ctx, 2500 + ok_count));
  cluster.simulator().Run();
}

}  // namespace
}  // namespace namtree::index

// ---------------------------------------------------------------------------
// Crash faults: clients are killed mid-protocol and the survivors must keep
// going, reclaim the victims' orphaned locks, and leave a sound structure.
// ---------------------------------------------------------------------------

namespace namtree::index {
namespace {

using btree::KV;
using nam::Cluster;

struct CrashOutcome {
  uint64_t ops = 0;
  uint64_t dead_clients = 0;
  uint64_t lock_steals = 0;  ///< across the run and the recovery sweep
  bool sound = false;
  std::string report;
};

// Mixed read/write stress with a crash schedule, followed by a recovery
// sweep from a *surviving* client: full-keyspace lookups cross every
// descent path (lease-stealing inner-node orphans on the way) and a scan +
// GC pass walks the whole leaf chain (stealing leaf orphans). Only then do
// we assert quiescent invariants — an orphaned lock bit is a soundness
// violation the inspector reports.
template <typename Index>
CrashOutcome RunCrashStress(rdma::FabricConfig fc, uint64_t seed) {
  fc.lock_lease_ns = 100 * kMicrosecond;
  Cluster cluster(fc, 64 << 20);
  IndexConfig config;
  config.page_size = 256;
  config.head_node_interval = 4;
  Index index(cluster, config);
  const uint64_t keys = 4000;
  EXPECT_TRUE(index.BulkLoad(MakeData(keys)).ok());

  ycsb::RunConfig run;
  run.num_clients = 16;
  run.warmup = 0;
  run.duration = 25 * kMillisecond;
  run.seed = seed;
  run.gc_interval = 6 * kMillisecond;
  run.mix = StressMix();
  const auto result = ycsb::RunWorkload(cluster, index, keys, run);

  nam::ClientContext rec(15, cluster.fabric(), config.page_size,
                         seed ^ 0x5ECULL);
  EXPECT_TRUE(cluster.fabric().ClientAlive(rec.client_id()))
      << "the recovery client must not be on the crash schedule";
  struct Recover {
    static sim::Task<> Go(Index& index, nam::ClientContext& ctx,
                          uint64_t max_key) {
      for (uint64_t k = 0; k <= max_key; k += 2) {
        (void)co_await index.Lookup(ctx, k);
      }
      (void)co_await index.Scan(ctx, 0, btree::kInfinityKey, nullptr);
      (void)co_await index.GarbageCollect(ctx);
    }
  };
  sim::Spawn(cluster.simulator(), Recover::Go(index, rec, 2 * keys));
  cluster.simulator().Run();

  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  if (const auto* auditor = cluster.fabric().auditor()) {
    EXPECT_TRUE(auditor->LockedWords().empty())
        << "orphaned locks survived the recovery sweep";
  }

  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  CrashOutcome outcome;
  outcome.ops = result.ops();
  outcome.dead_clients = result.dead_clients();
  outcome.lock_steals = result.lock_steals() + rec.lock_steals;
  outcome.sound = report.ok();
  outcome.report = report.ToString();
  return outcome;
}

std::vector<rdma::FabricConfig::CrashPoint> CrashSchedule() {
  // Kill three of the sixteen clients at very different protocol depths:
  // mid-descent early on, mid-run, and deep into the run.
  return {{1, 50}, {5, 500}, {9, 2000}};
}

TEST(CrashSweepTest, FineGrainedSurvivesClientCrashes) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  const auto healthy = RunCrashStress<FineGrainedIndex>(fc, 41);
  EXPECT_EQ(healthy.dead_clients, 0u);
  // A live holder is never robbed: leases only arm the steal path.
  EXPECT_EQ(healthy.lock_steals, 0u);
  EXPECT_TRUE(healthy.sound) << healthy.report;

  fc.crash_points = CrashSchedule();
  const auto crashed = RunCrashStress<FineGrainedIndex>(fc, 41);
  EXPECT_EQ(crashed.dead_clients, 3u);
  EXPECT_TRUE(crashed.sound) << crashed.report;
  // Thirteen survivors keep the closed loop going; losing 3/16 clients
  // (plus lease waits on their orphans) must not collapse throughput.
  EXPECT_GE(crashed.ops, healthy.ops / 2);
}

TEST(CrashSweepTest, HybridSurvivesClientCrashes) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  fc.rpc_timeout_ns = 200 * kMicrosecond;  // exercise the deadline registry
  const auto healthy = RunCrashStress<HybridIndex>(fc, 42);
  EXPECT_EQ(healthy.dead_clients, 0u);
  EXPECT_EQ(healthy.lock_steals, 0u);
  EXPECT_TRUE(healthy.sound) << healthy.report;

  fc.crash_points = CrashSchedule();
  const auto crashed = RunCrashStress<HybridIndex>(fc, 42);
  EXPECT_EQ(crashed.dead_clients, 3u);
  EXPECT_TRUE(crashed.sound) << crashed.report;
  EXPECT_GE(crashed.ops, healthy.ops / 2);
}

// The targeted version of the sweep: a client dies while *holding* a leaf
// lock and a waiter must lease-steal it, discard nothing (the holder's
// unlock write was dropped in flight), and proceed.
TEST(OrphanedLockTest, WaiterStealsLockFromDeadHolderAfterLease) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.lock_lease_ns = 20 * kMicrosecond;
  Cluster cluster(fc, 1 << 20);
  cluster.fabric().SetNumClients(2);
  constexpr uint32_t kPage = 256;
  const rdma::RemotePtr ptr =
      cluster.memory_server(0).region().AllocateLocal(kPage);
  btree::PageView(cluster.memory_server(0).region().at(ptr.offset()), kPage)
      .InitLeaf(btree::kInfinityKey, 0);
  nam::ClientContext holder(0, cluster.fabric(), kPage, 1);
  nam::ClientContext stealer(1, cluster.fabric(), kPage, 2);

  struct Holder {
    static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr ptr,
                          Status* unlock_status) {
      uint8_t* buf = ops.ctx().page_a();
      EXPECT_TRUE((co_await ops.LockPage(ptr, buf)).ok());
      // The compute process dies between acquiring the lock and writing
      // back: the write-unlock chain is dropped in flight.
      ops.fabric().KillClient(ops.ctx().client_id());
      *unlock_status = co_await ops.WriteUnlockPage(ptr, buf);
    }
  };
  struct Stealer {
    static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr ptr,
                          Status* lock_status) {
      // Let the holder win the lock first.
      co_await sim::Delay(ops.fabric().simulator(), 5 * kMicrosecond);
      uint8_t* buf = ops.ctx().page_a();
      const PageReadResult lock = co_await ops.LockPage(ptr, buf);
      *lock_status = lock.status;
      if (lock.ok()) {
        btree::PageView view(buf, kPage);
        EXPECT_TRUE(view.LeafInsert(7, 7));
        EXPECT_TRUE((co_await ops.WriteUnlockPage(ptr, buf)).ok());
      }
    }
  };
  Status unlock_status;
  Status lock_status;
  sim::Spawn(cluster.simulator(),
             Holder::Go(RemoteOps(holder), ptr, &unlock_status));
  sim::Spawn(cluster.simulator(),
             Stealer::Go(RemoteOps(stealer), ptr, &lock_status));
  cluster.simulator().Run();

  EXPECT_TRUE(unlock_status.IsUnavailable()) << unlock_status.ToString();
  EXPECT_TRUE(lock_status.ok()) << lock_status.ToString();
  EXPECT_EQ(stealer.lock_steals, 1u);

  // The page ends up unlocked with the stealer's insert applied.
  btree::PageView view(
      cluster.memory_server(0).region().at(ptr.offset()), kPage);
  EXPECT_FALSE(btree::IsLocked(view.version_word()));
  EXPECT_GE(view.LeafFindLive(7), 0);

  // The steal is a *sanctioned* transition: the auditor saw the liveness
  // probe and must not report a protocol violation.
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  if (const auto* auditor = cluster.fabric().auditor()) {
    EXPECT_EQ(auditor->lock_steals(), 1u);
    EXPECT_TRUE(auditor->LockedWords().empty());
  }
}

// Capped exponential backoff: a waiter spinning on a held lock re-polls a
// bounded number of times instead of hammering the word at a fixed rate.
TEST(BackoffTest, ExponentialBackoffBoundsSpinPolls) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.lock_retry_ns = 1000;
  fc.lock_backoff_max_ns = 8000;
  Cluster cluster(fc, 1 << 20);
  cluster.fabric().SetNumClients(2);
  constexpr uint32_t kPage = 256;
  const rdma::RemotePtr ptr =
      cluster.memory_server(0).region().AllocateLocal(kPage);
  btree::PageView(cluster.memory_server(0).region().at(ptr.offset()), kPage)
      .InitLeaf(btree::kInfinityKey, 0);
  nam::ClientContext holder(0, cluster.fabric(), kPage, 1);
  nam::ClientContext reader(1, cluster.fabric(), kPage, 2);

  struct Hold {
    static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr ptr, SimTime hold) {
      uint8_t* buf = ops.ctx().page_a();
      EXPECT_TRUE((co_await ops.LockPage(ptr, buf)).ok());
      co_await sim::Delay(ops.fabric().simulator(), hold);
      EXPECT_TRUE((co_await ops.WriteUnlockPage(ptr, buf)).ok());
    }
  };
  struct Observe {
    static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr ptr) {
      co_await sim::Delay(ops.fabric().simulator(), 10 * kMicrosecond);
      uint8_t* buf = ops.ctx().page_a();
      EXPECT_TRUE((co_await ops.ReadPageUnlocked(ptr, buf)).ok());
    }
  };
  sim::Spawn(cluster.simulator(),
             Hold::Go(RemoteOps(holder), ptr, 100 * kMicrosecond));
  sim::Spawn(cluster.simulator(), Observe::Go(RemoteOps(reader), ptr));
  cluster.simulator().Run();

  // ~90us of spinning at a capped [4us, 8us) cadence: far fewer re-polls
  // than the ~90 a fixed 1us retry would issue, but more than a handful.
  EXPECT_GT(reader.backoff_rounds, 3u);
  EXPECT_GT(reader.lock_waits, 3u);
  EXPECT_LT(reader.lock_waits, 60u);
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

// Kill the writer after its k-th verb while it drives leaf splits: every
// insert must end OK or Unavailable (never a torn state), and after a
// recovery sweep the tree must inspect sound with all acknowledged
// inserts still readable.
class SplitCrashTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(VerbPoints, SplitCrashTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           12, 14, 17, 21, 26, 33, 50, 80));

TEST_P(SplitCrashTest, FineGrainedInsertCrashLeavesRecoverableTree) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.lock_lease_ns = 30 * kMicrosecond;
  fc.crash_points = {{0, GetParam()}};
  Cluster cluster(fc, 1 << 20);
  cluster.fabric().SetNumClients(2);
  IndexConfig config;
  config.page_size = 256;
  config.head_node_interval = 0;
  FineGrainedIndex index(cluster, config);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 20; ++i) data.push_back({i * 10, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  nam::ClientContext writer(0, cluster.fabric(), config.page_size, 1);
  nam::ClientContext rec(1, cluster.fabric(), config.page_size, 2);

  struct Writer {
    static sim::Task<> Go(FineGrainedIndex& index, nam::ClientContext& ctx,
                          uint64_t* acked) {
      // Sequential keys past the bulk range force repeated splits of the
      // rightmost leaf; the crash point lands in a different split phase
      // for every parameter value.
      for (uint64_t k = 0; k < 150; ++k) {
        const Status s = co_await index.Insert(ctx, 1000 + k, k);
        if (s.ok()) {
          (*acked)++;
        } else {
          EXPECT_TRUE(s.IsUnavailable())
              << "crash mid-insert must surface cleanly, got "
              << s.ToString();
        }
      }
    }
  };
  uint64_t acked = 0;
  sim::Spawn(cluster.simulator(), Writer::Go(index, writer, &acked));
  cluster.simulator().Run();
  EXPECT_FALSE(cluster.fabric().ClientAlive(0));

  struct Recover {
    static sim::Task<> Go(FineGrainedIndex& index, nam::ClientContext& ctx,
                          uint64_t min_live) {
      // Lookups across both key ranges cross every descent path and
      // lease-steal any orphaned inner or leaf lock the victim left.
      for (uint64_t k = 0; k < 200; k += 5) {
        (void)co_await index.Lookup(ctx, k);
      }
      for (uint64_t k = 1000; k < 1150; ++k) {
        (void)co_await index.Lookup(ctx, k);
      }
      const uint64_t live =
          co_await index.Scan(ctx, 0, btree::kInfinityKey, nullptr);
      // Every acknowledged insert survives the crash (an unacknowledged
      // one may too if it died after the entry write landed).
      EXPECT_GE(live, min_live);
      (void)co_await index.GarbageCollect(ctx);
    }
  };
  sim::Spawn(cluster.simulator(), Recover::Go(index, rec, 20 + acked));
  cluster.simulator().Run();

  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  if (const auto* auditor = cluster.fabric().auditor()) {
    EXPECT_TRUE(auditor->LockedWords().empty())
        << "orphaned locks survived the recovery sweep";
  }
  const auto report = IndexInspector::Inspect(cluster.fabric(), index);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---------------------------------------------------------------------------
// Chain-boundary crashes: a client that dies while a doorbell-batched verb
// chain is in flight loses the not-yet-executed tail atomically
// (Fabric::PostChain drops it in one piece). Sweeping the kill time in
// sub-effect steps across the whole posting window must only ever expose
// the sanctioned intermediate states — never a torn one.
// ---------------------------------------------------------------------------

// The {page WRITE, unlock WRITE} chain of RemoteOps::WriteUnlockPage. Legal
// terminal states of the remote page:
//   untouched — died before the lock CAS landed: old image, version 0;
//   orphaned  — died mid-protocol: lock bit still set (content old or new),
//               reclaimable through the lease/steal path;
//   complete  — the unlock tail executed, so the content WRITE posted ahead
//               of it did too: new image, version = pre-lock + 2, holder
//               bits clear.
// "New content without the version bump" (a torn tail) must never appear.
TEST(ChainCrashTest, WriteUnlockChainDropsTailAtomically) {
  constexpr uint32_t kPage = 256;
  bool saw_untouched = false, saw_orphan = false, saw_complete = false;
  for (SimTime kill = 60; kill <= 21 * kMicrosecond; kill += 60) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 1;
    Cluster cluster(fc, 1 << 20);
    cluster.fabric().SetNumClients(1);
    const rdma::RemotePtr ptr =
        cluster.memory_server(0).region().AllocateLocal(kPage);
    btree::PageView(cluster.memory_server(0).region().at(ptr.offset()), kPage)
        .InitLeaf(btree::kInfinityKey, 0);
    nam::ClientContext writer(0, cluster.fabric(), kPage, 1);
    cluster.fabric().KillClient(0, kill);

    struct Writer {
      static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr ptr) {
        uint8_t* buf = ops.ctx().page_a();
        const PageReadResult lock = co_await ops.LockPage(ptr, buf);
        if (!lock.ok()) co_return;
        btree::PageView view(buf, kPage);
        EXPECT_TRUE(view.LeafInsert(7, 7));
        (void)co_await ops.WriteUnlockPage(ptr, buf);
      }
    };
    sim::Spawn(cluster.simulator(), Writer::Go(RemoteOps(writer), ptr));
    cluster.simulator().Run();

    btree::PageView view(cluster.memory_server(0).region().at(ptr.offset()),
                         kPage);
    const uint64_t word = view.version_word();
    const bool has_insert = view.LeafFindLive(7) >= 0;
    if (word == 0) {
      saw_untouched = true;
      EXPECT_FALSE(has_insert)
          << "kill=" << kill << ": content landed without its version word";
    } else if (btree::IsLocked(word)) {
      saw_orphan = true;
      EXPECT_EQ(btree::VersionOf(word), 0u);
    } else {
      saw_complete = true;
      EXPECT_EQ(word, 2u)
          << "kill=" << kill << ": unlock must install a clean +2 version";
      EXPECT_TRUE(has_insert)
          << "kill=" << kill
          << ": unlock executed but the content WRITE chained before it "
             "did not — the dropped tail was not atomic";
    }
    EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
        << "kill=" << kill << ": "
        << cluster.fabric().CheckAuditClean().ToString();
    if (const auto* auditor = cluster.fabric().auditor()) {
      EXPECT_EQ(auditor->LockedWords().empty(), !btree::IsLocked(word));
    }
  }
  // The 60ns sweep step undercuts every inter-effect gap in the chain (the
  // floor is unsignaled_engine_ns = 120ns), so the sweep must have caught
  // the protocol in all three phases.
  EXPECT_TRUE(saw_untouched);
  EXPECT_TRUE(saw_orphan);
  EXPECT_TRUE(saw_complete);
}

// The 3-op split chain {sibling WRITE, page WRITE, unlock WRITE} of
// RemoteOps::WriteUnlockPage with a sibling: chain members take effect in
// posting order, so whenever the left page's freshly published sibling
// pointer is visible, the sibling page it names must already be fully
// written. A crash may leak an unpublished sibling (written but never
// linked) or an orphaned lock — both recoverable — but never a published
// pointer to an unwritten page.
TEST(ChainCrashTest, SplitChainNeverPublishesUnwrittenSibling) {
  constexpr uint32_t kPage = 256;
  constexpr btree::Key kSep = 500;
  bool saw_unpublished = false, saw_midchain = false, saw_complete = false;
  for (SimTime kill = 60; kill <= 21 * kMicrosecond; kill += 60) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 1;
    Cluster cluster(fc, 1 << 20);
    cluster.fabric().SetNumClients(1);
    rdma::MemoryRegion& region = cluster.memory_server(0).region();
    const rdma::RemotePtr left = region.AllocateLocal(kPage);
    const rdma::RemotePtr sib = region.AllocateLocal(kPage);
    btree::PageView(region.at(left.offset()), kPage)
        .InitLeaf(btree::kInfinityKey, 0);
    nam::ClientContext writer(0, cluster.fabric(), kPage, 1);
    cluster.fabric().KillClient(0, kill);

    struct Writer {
      static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr left,
                            rdma::RemotePtr sib) {
        uint8_t* buf = ops.ctx().page_a();
        const PageReadResult lock = co_await ops.LockPage(left, buf);
        if (!lock.ok()) co_return;
        // A split by hand: fence the locked left page at kSep and hang the
        // new right sibling (one live entry) off it.
        btree::PageView view(buf, kPage);
        view.header().high_key = kSep;
        view.header().right_sibling = sib.raw();
        std::vector<uint8_t> rimage(kPage, 0);
        btree::PageView rview(rimage.data(), kPage);
        rview.InitLeaf(btree::kInfinityKey, 0);
        EXPECT_TRUE(rview.LeafInsert(700, 7));
        (void)co_await ops.WriteUnlockPage(left, buf, sib, rimage.data());
      }
    };
    sim::Spawn(cluster.simulator(), Writer::Go(RemoteOps(writer), left, sib));
    cluster.simulator().Run();

    btree::PageView lview(region.at(left.offset()), kPage);
    btree::PageView sview(region.at(sib.offset()), kPage);
    const uint64_t word = lview.version_word();
    const bool published = lview.right_sibling() == sib.raw();
    // The sibling target starts zero-filled; the chained InitLeaf image is
    // the only write that can install the infinity fence.
    const bool sibling_written = sview.high_key() == btree::kInfinityKey;
    if (published) {
      // The load-bearing posting-order guarantee.
      EXPECT_TRUE(sibling_written)
          << "kill=" << kill
          << ": left page links a sibling that was never written";
      EXPECT_GE(sview.LeafFindLive(700), 0);
      EXPECT_EQ(lview.high_key(), kSep);
    }
    const bool complete = !btree::IsLocked(word) && word != 0;
    if (complete) {
      saw_complete = true;
      EXPECT_TRUE(published)
          << "kill=" << kill << ": unlocked without publishing the split";
      EXPECT_EQ(word, 2u);
    } else if (sibling_written) {
      saw_midchain = true;  // chain partially executed, tail dropped whole
    } else {
      saw_unpublished = true;  // nothing of the chain landed
    }
    EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
        << "kill=" << kill << ": "
        << cluster.fabric().CheckAuditClean().ToString();
  }
  EXPECT_TRUE(saw_unpublished);
  EXPECT_TRUE(saw_midchain);
  EXPECT_TRUE(saw_complete);
}

}  // namespace
}  // namespace namtree::index

// ---------------------------------------------------------------------------
// RPC deadlines: Fabric::Call must abandon an attempt at the timeout,
// resend up to rpc_max_retries times, and surface kTimedOut/kUnavailable.
// ---------------------------------------------------------------------------

namespace namtree::index {
namespace {

using nam::Cluster;

struct DelayedEcho {
  static sim::Task<> Handle(nam::MemoryServer& server, rdma::IncomingRpc rpc,
                            SimTime delay) {
    co_await sim::Delay(server.fabric().simulator(),
                        server.RequestOverhead() + delay);
    rdma::RpcResponse resp;
    resp.status = static_cast<uint16_t>(StatusCode::kOk);
    resp.arg0 = rpc.request.arg0 + 1;
    server.fabric().Respond(server.server_id(), rpc, std::move(resp));
  }
};

struct Caller {
  static sim::Task<> Go(rdma::Fabric& fabric, uint16_t service,
                        rdma::RpcResponse* out) {
    rdma::RpcRequest req;
    req.service = service;
    req.arg0 = 41;
    *out = co_await fabric.Call(0, 0, std::move(req));
  }
};

// Replies arg0 + 1 after `delay` and records when the reply was sent.
sim::Task<> TaggedReply(nam::MemoryServer& server, rdma::IncomingRpc rpc,
                        SimTime delay, std::vector<SimTime>* replied) {
  co_await sim::Delay(server.fabric().simulator(),
                      server.RequestOverhead() + delay);
  rdma::RpcResponse resp;
  resp.status = static_cast<uint16_t>(StatusCode::kOk);
  resp.arg0 = rpc.request.arg0 + 1;
  replied->push_back(server.fabric().simulator().now());
  server.fabric().Respond(server.server_id(), rpc, std::move(resp));
}

sim::Task<> TimedCaller(rdma::Fabric& fabric, uint16_t service,
                        rdma::RpcResponse* out, SimTime* returned_at) {
  rdma::RpcRequest req;
  req.service = service;
  *out = co_await fabric.Call(0, 0, std::move(req));
  *returned_at = fabric.simulator().now();
}

TEST(RpcTimeoutTest, SlowFirstAttemptIsRetriedAndLateReplyDropped) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 1;
  fc.rpc_timeout_ns = 50 * kMicrosecond;
  fc.rpc_max_retries = 2;
  Cluster cluster(fc, 1 << 20);
  cluster.fabric().SetNumClients(1);
  const uint16_t service = cluster.AllocateRpcService();
  uint64_t calls = 0;
  cluster.memory_server(0).RegisterHandler(
      service, [&calls](nam::MemoryServer& server, rdma::IncomingRpc rpc) {
        // First attempt stalls past the deadline; the resend is served
        // promptly. The stalled handler still responds eventually — into
        // an abandoned call registration.
        const SimTime delay =
            calls++ == 0 ? 400 * kMicrosecond : kMicrosecond;
        return DelayedEcho::Handle(server, std::move(rpc), delay);
      });

  rdma::RpcResponse out;
  sim::Spawn(cluster.simulator(), Caller::Go(cluster.fabric(), service, &out));
  cluster.simulator().Run();

  EXPECT_EQ(out.status, static_cast<uint16_t>(StatusCode::kOk));
  EXPECT_EQ(out.arg0, 42u);
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(cluster.fabric().metrics().Value("fabric.rpc_timeouts"), 1u);
  EXPECT_EQ(cluster.fabric().metrics().Value("fabric.dropped_responses"), 1u)
      << "the abandoned attempt's late reply must be charged and dropped";
}

// The resend after a timeout may reuse the abandoned attempt's call slot.
// The abandoned attempt's reply, landing while the resend's handler still
// runs, must be charged and dropped once and must not complete the resend:
// the caller gets the resend's own reply.
TEST(RpcTimeoutTest, LateReplyLandingOnReusedSlotIsDropped) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 1;
  fc.rpc_timeout_ns = 50 * kMicrosecond;
  fc.rpc_max_retries = 2;
  Cluster cluster(fc, 1 << 20);
  cluster.fabric().SetNumClients(1);
  const uint16_t service = cluster.AllocateRpcService();
  uint64_t calls = 0;
  std::vector<SimTime> started;
  std::vector<SimTime> replied;
  cluster.memory_server(0).RegisterHandler(
      service, [&](nam::MemoryServer& server, rdma::IncomingRpc rpc) {
        started.push_back(server.fabric().simulator().now());
        // First attempt: just past the deadline. The resend: inside its own
        // deadline, but long enough that the first reply lands while it is
        // still in its handler.
        const uint64_t attempt = calls++;
        rpc.request.arg0 = attempt == 0 ? 100 : 200;
        return TaggedReply(server, std::move(rpc),
                           attempt == 0 ? 60 * kMicrosecond
                                        : 30 * kMicrosecond,
                           &replied);
      });

  rdma::RpcResponse out;
  SimTime returned_at = 0;
  sim::Spawn(cluster.simulator(),
             TimedCaller(cluster.fabric(), service, &out, &returned_at));
  cluster.simulator().Run();

  ASSERT_EQ(calls, 2u);
  ASSERT_EQ(replied.size(), 2u);
  // The first reply was sent while the resend was still being served.
  EXPECT_GT(replied[0], started[1]);
  EXPECT_LT(replied[0], replied[1]);
  EXPECT_EQ(out.status, static_cast<uint16_t>(StatusCode::kOk));
  EXPECT_EQ(out.arg0, 201u) << "the resend must return its own reply";
  EXPECT_GT(returned_at, replied[1]);
  EXPECT_EQ(cluster.fabric().metrics().Value("fabric.rpc_timeouts"), 1u);
  EXPECT_EQ(cluster.fabric().metrics().Value("fabric.dropped_responses"), 1u)
      << "the abandoned attempt's reply must be dropped exactly once";
}

TEST(RpcTimeoutTest, PersistentlySlowServiceSurfacesTimedOut) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 1;
  fc.rpc_timeout_ns = 20 * kMicrosecond;
  fc.rpc_max_retries = 2;
  Cluster cluster(fc, 1 << 20);
  cluster.fabric().SetNumClients(1);
  const uint16_t service = cluster.AllocateRpcService();
  cluster.memory_server(0).RegisterHandler(
      service, [](nam::MemoryServer& server, rdma::IncomingRpc rpc) {
        return DelayedEcho::Handle(server, std::move(rpc),
                                   300 * kMicrosecond);
      });

  rdma::RpcResponse out;
  sim::Spawn(cluster.simulator(), Caller::Go(cluster.fabric(), service, &out));
  cluster.simulator().Run();

  EXPECT_EQ(out.status, static_cast<uint16_t>(StatusCode::kTimedOut));
  // Initial attempt + rpc_max_retries resends, each abandoned.
  EXPECT_EQ(cluster.fabric().metrics().Value("fabric.rpc_timeouts"), 3u);
  EXPECT_EQ(cluster.fabric().metrics().Value("fabric.dropped_responses"), 3u);
}

TEST(RpcTimeoutTest, DeadCallerGetsUnavailableWithoutRetrying) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 1;
  fc.rpc_timeout_ns = 50 * kMicrosecond;
  Cluster cluster(fc, 1 << 20);
  cluster.fabric().SetNumClients(1);
  const uint16_t service = cluster.AllocateRpcService();
  cluster.memory_server(0).RegisterHandler(
      service, [](nam::MemoryServer& server, rdma::IncomingRpc rpc) {
        return DelayedEcho::Handle(server, std::move(rpc), kMicrosecond);
      });
  cluster.fabric().KillClient(0);

  rdma::RpcResponse out;
  sim::Spawn(cluster.simulator(), Caller::Go(cluster.fabric(), service, &out));
  cluster.simulator().Run();

  EXPECT_EQ(out.status, static_cast<uint16_t>(StatusCode::kUnavailable));
  EXPECT_EQ(cluster.fabric().metrics().Value("fabric.rpc_timeouts"), 0u);
}

struct ParkedCaller {
  static sim::Task<> Go(rdma::Fabric& fabric, uint32_t client,
                        uint16_t service, SimTime start,
                        std::vector<uint32_t>* woke,
                        std::vector<uint16_t>* statuses) {
    co_await sim::Delay(fabric.simulator(), start);
    rdma::RpcRequest req;
    req.service = service;
    const rdma::RpcResponse resp = co_await fabric.Call(client, 0, req);
    woke->push_back(client);
    statuses->push_back(resp.status);
  }
};

struct ServerKiller {
  static sim::Task<> Go(rdma::Fabric& fabric, SimTime at) {
    co_await sim::Delay(fabric.simulator(), at);
    fabric.KillServer(0);
  }
};

// Callers parked on a server's workers when it dies are failed in the
// order their calls were made, whatever order the call registry iterates
// in: the wake-ups land at one instant, so their order decides who runs
// first.
TEST(ServerLossTest, ParkedCallersFailInCallOrder) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 1;
  Cluster cluster(fc, 1 << 20);
  // The wake-ups share a timestamp: pin the FIFO tie-break so the order
  // observed is the order the death fallout woke them in.
  cluster.simulator().ConfigureSchedule(0);
  cluster.fabric().SetNumClients(2);
  const uint16_t service = cluster.AllocateRpcService();
  cluster.memory_server(0).RegisterHandler(
      service, [](nam::MemoryServer& server, rdma::IncomingRpc rpc) {
        // Far slower than the kill: both callers are still parked.
        return DelayedEcho::Handle(server, std::move(rpc), kSecond);
      });

  std::vector<uint32_t> woke;
  std::vector<uint16_t> statuses;
  // Client 1 calls first, so it holds the smaller call id.
  sim::Spawn(cluster.simulator(),
             ParkedCaller::Go(cluster.fabric(), 1, service, 0, &woke,
                              &statuses));
  sim::Spawn(cluster.simulator(),
             ParkedCaller::Go(cluster.fabric(), 0, service,
                              10 * kMicrosecond, &woke, &statuses));
  sim::Spawn(cluster.simulator(),
             ServerKiller::Go(cluster.fabric(), 100 * kMicrosecond));
  cluster.simulator().Run();

  EXPECT_EQ(woke, (std::vector<uint32_t>{1, 0}));
  const uint16_t unavailable = static_cast<uint16_t>(StatusCode::kUnavailable);
  EXPECT_EQ(statuses, (std::vector<uint16_t>{unavailable, unavailable}));
}

}  // namespace
}  // namespace namtree::index

// ---------------------------------------------------------------------------
// Memory-server fault domain (docs/fault_model.md §Memory-server failures):
// server crash injection, replicated page writes, and client-driven
// failover. At R=1 a dead server's pages are simply gone — ops surface
// kUnavailable. At R>1 every page has R rank-striped replicas on distinct
// servers; readers promote the next live replica deterministically and
// disciplined writers publish primary + backups in one doorbell chain.
// ---------------------------------------------------------------------------

namespace namtree::index {
namespace {

using btree::KV;
using nam::Cluster;

// A reader whose page's primary server died is served from the rank-1
// replica — same bytes, no auditor complaint. The R=1 control: the same
// death makes the read fail with kUnavailable instead of hanging.
TEST(ServerLossTest, ReplicatedReadFailsOverToBackup) {
  constexpr uint32_t kPage = 256;
  for (const uint32_t replication : {1u, 2u}) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 2;
    fc.replication_factor = replication;
    Cluster cluster(fc, 1 << 20);
    cluster.fabric().SetNumClients(1);
    rdma::MemoryRegion& region = cluster.memory_server(0).region();
    const rdma::RemotePtr ptr = region.AllocateLocal(kPage);
    btree::PageView view(region.at(ptr.offset()), kPage);
    view.InitLeaf(btree::kInfinityKey, 0);
    EXPECT_TRUE(view.LeafInsert(42, 7));
    view.header().version_lock = 2;
    cluster.fabric().SyncReplicasFromPrimaries();
    cluster.fabric().KillServer(0);

    nam::ClientContext reader(0, cluster.fabric(), kPage, 1);
    struct Reader {
      static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr ptr,
                            Status* status, uint64_t* version) {
        uint8_t* buf = ops.ctx().page_a();
        const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
        *status = read.status;
        *version = read.version;
        if (read.ok()) {
          btree::PageView view(buf, kPage);
          EXPECT_GE(view.LeafFindLive(42), 0)
              << "promoted replica lost the bulk-loaded entry";
        }
      }
    };
    Status status;
    uint64_t version = 0;
    sim::Spawn(cluster.simulator(),
               Reader::Go(RemoteOps(reader), ptr, &status, &version));
    cluster.simulator().Run();

    if (replication > 1) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(version, 2u) << "replica must carry the primary's version";
    } else {
      EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
    }
    EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
        << cluster.fabric().CheckAuditClean().ToString();
  }
}

// The primary dies between the lock CAS and the write-unlock publication.
// The publication aborts (kAborted — nothing of it landed), and the writer
// retries the whole op against the promoted replica: the backup word is
// always a clean unlocked version, so the retry locks it, applies the
// write, and the entry is durable on the replica.
TEST(ServerLossTest, WriterRetriesOnPromotedReplicaAfterPrimaryDeath) {
  constexpr uint32_t kPage = 256;
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.replication_factor = 2;
  Cluster cluster(fc, 1 << 20);
  cluster.fabric().SetNumClients(1);
  rdma::MemoryRegion& region = cluster.memory_server(0).region();
  const rdma::RemotePtr ptr = region.AllocateLocal(kPage);
  btree::PageView(region.at(ptr.offset()), kPage)
      .InitLeaf(btree::kInfinityKey, 0);
  cluster.fabric().SyncReplicasFromPrimaries();
  nam::ClientContext writer(0, cluster.fabric(), kPage, 1);

  struct Writer {
    static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr ptr,
                          Status* first_unlock, Status* retry_status) {
      uint8_t* buf = ops.ctx().page_a();
      EXPECT_TRUE((co_await ops.LockPage(ptr, buf)).ok());
      btree::PageView view(buf, kPage);
      EXPECT_TRUE(view.LeafInsert(7, 7));
      // The primary dies while the lock is held, before publication.
      ops.fabric().KillServer(ptr.server_id());
      *first_unlock = co_await ops.WriteUnlockPage(ptr, buf);
      if (!first_unlock->IsAborted()) co_return;
      // Op-level retry: re-read (promotes the replica), re-apply, publish.
      const PageReadResult lock = co_await ops.LockPage(ptr, buf);
      EXPECT_TRUE(lock.ok()) << lock.status.ToString();
      btree::PageView retry_view(buf, kPage);
      EXPECT_TRUE(retry_view.LeafInsert(7, 7));
      *retry_status = co_await ops.WriteUnlockPage(ptr, buf);
    }
  };
  Status first_unlock;
  Status retry_status;
  sim::Spawn(cluster.simulator(),
             Writer::Go(RemoteOps(writer), ptr, &first_unlock,
                        &retry_status));
  cluster.simulator().Run();

  EXPECT_TRUE(first_unlock.IsAborted()) << first_unlock.ToString();
  EXPECT_TRUE(retry_status.ok()) << retry_status.ToString();

  // The surviving replica holds the entry, unlocked, version advanced.
  const rdma::RemotePtr rep = cluster.fabric().ReplicaPtr(ptr, 1);
  btree::PageView rview(
      cluster.fabric().region(rep.server_id())->at(rep.offset()), kPage);
  EXPECT_FALSE(btree::IsLocked(rview.version_word()));
  EXPECT_GE(rview.LeafFindLive(7), 0);
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  if (const auto* auditor = cluster.fabric().auditor()) {
    EXPECT_TRUE(auditor->LockedWords().empty());
  }
}

// Server crash points land at *effect* time, so a threshold can fall
// between two members of one split-publication chain. Sweeping the
// threshold across the whole chain: the op ends OK or kUnavailable (R=1),
// the auditor stays clean (it is taught the retraction), and whenever the
// left page's sibling pointer is visible in the (frozen) region, the
// sibling page it names was fully written first — posting order holds up
// to the drop point.
TEST(ServerKillChainTest, SplitChainServerDeathIsSanctioned) {
  constexpr uint32_t kPage = 256;
  constexpr btree::Key kSep = 500;
  for (uint64_t after_verbs = 1; after_verbs <= 12; ++after_verbs) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 1;
    fc.server_crash_points = {{0, after_verbs}};
    Cluster cluster(fc, 1 << 20);
    cluster.fabric().SetNumClients(1);
    rdma::MemoryRegion& region = cluster.memory_server(0).region();
    const rdma::RemotePtr left = region.AllocateLocal(kPage);
    const rdma::RemotePtr sib = region.AllocateLocal(kPage);
    btree::PageView(region.at(left.offset()), kPage)
        .InitLeaf(btree::kInfinityKey, 0);
    nam::ClientContext writer(0, cluster.fabric(), kPage, 1);

    struct Writer {
      static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr left,
                            rdma::RemotePtr sib, Status* out) {
        uint8_t* buf = ops.ctx().page_a();
        const PageReadResult lock = co_await ops.LockPage(left, buf);
        if (!lock.ok()) {
          *out = lock.status;
          co_return;
        }
        btree::PageView view(buf, kPage);
        view.header().high_key = kSep;
        view.header().right_sibling = sib.raw();
        std::vector<uint8_t> rimage(kPage, 0);
        btree::PageView rview(rimage.data(), kPage);
        rview.InitLeaf(btree::kInfinityKey, 0);
        EXPECT_TRUE(rview.LeafInsert(700, 7));
        *out = co_await ops.WriteUnlockPage(left, buf, sib, rimage.data());
      }
    };
    Status status;
    sim::Spawn(cluster.simulator(),
               Writer::Go(RemoteOps(writer), left, sib, &status));
    cluster.simulator().Run();

    EXPECT_TRUE(status.ok() || status.IsUnavailable())
        << "after_verbs=" << after_verbs << ": " << status.ToString();
    EXPECT_FALSE(cluster.fabric().ServerAlive(0) && !status.ok())
        << "after_verbs=" << after_verbs
        << ": op failed but the server never died";

    // The region's frozen state still respects posting order.
    btree::PageView lview(region.at(left.offset()), kPage);
    btree::PageView sview(region.at(sib.offset()), kPage);
    if (lview.right_sibling() == sib.raw()) {
      EXPECT_EQ(sview.high_key(), btree::kInfinityKey)
          << "after_verbs=" << after_verbs
          << ": published pointer to an unwritten sibling";
    }
    EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
        << "after_verbs=" << after_verbs << ": "
        << cluster.fabric().CheckAuditClean().ToString();
  }
}

// A waiter lease-stealing an orphaned lock needs the holder's epoch word.
// When the server hosting that word is dead (and unreplicated), the
// liveness probe must not spin forever: after rpc_max_retries consecutive
// failed probes the op surfaces kUnavailable.
TEST(ServerLossTest, DeadEpochHostBoundsTheStealProbe) {
  constexpr uint32_t kPage = 256;
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  fc.lock_lease_ns = 20 * kMicrosecond;
  fc.rpc_max_retries = 2;
  Cluster cluster(fc, 1 << 20);
  cluster.fabric().SetNumClients(2);
  rdma::MemoryRegion& region = cluster.memory_server(0).region();
  const rdma::RemotePtr ptr = region.AllocateLocal(kPage);
  btree::PageView(region.at(ptr.offset()), kPage)
      .InitLeaf(btree::kInfinityKey, 0);
  // Client 1's epoch word lives on server 1 (client_id % num_servers).
  nam::ClientContext holder(1, cluster.fabric(), kPage, 1);
  nam::ClientContext stealer(0, cluster.fabric(), kPage, 2);

  struct Holder {
    static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr ptr) {
      uint8_t* buf = ops.ctx().page_a();
      EXPECT_TRUE((co_await ops.LockPage(ptr, buf)).ok());
      // Die holding the lock — and take the epoch host down with us.
      ops.fabric().KillServer(1);
      ops.fabric().KillClient(ops.ctx().client_id());
      (void)co_await ops.WriteUnlockPage(ptr, buf);
    }
  };
  struct Stealer {
    static sim::Task<> Go(RemoteOps ops, rdma::RemotePtr ptr, Status* out) {
      co_await sim::Delay(ops.fabric().simulator(), 5 * kMicrosecond);
      uint8_t* buf = ops.ctx().page_a();
      *out = (co_await ops.LockPage(ptr, buf)).status;
    }
  };
  Status steal_status;
  sim::Spawn(cluster.simulator(), Holder::Go(RemoteOps(holder), ptr));
  sim::Spawn(cluster.simulator(),
             Stealer::Go(RemoteOps(stealer), ptr, &steal_status));
  const SimTime end = cluster.simulator().Run();

  EXPECT_TRUE(steal_status.IsUnavailable()) << steal_status.ToString();
  // Bounded: the probe gives up within a handful of lease periods instead
  // of re-arming forever.
  EXPECT_LT(end, 100 * kMillisecond);
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

// Degraded YCSB at R=1: killing one of four memory servers mid-run must
// fail fast — every fault-induced failure is kUnavailable (never a hang, a
// timeout loop, or a torn write the auditor would flag).
TEST(ServerLossTest, DegradedRunAtR1FailsOpsUnavailable) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  fc.lock_lease_ns = 100 * kMicrosecond;
  Cluster cluster(fc, 64 << 20);
  IndexConfig config;
  config.page_size = 256;
  config.head_node_interval = 4;
  FineGrainedIndex index(cluster, config);
  const uint64_t keys = 4000;
  ASSERT_TRUE(index.BulkLoad(MakeData(keys)).ok());
  cluster.fabric().KillServer(1, 8 * kMillisecond);

  ycsb::RunConfig run;
  run.num_clients = 16;
  run.warmup = 0;
  run.duration = 20 * kMillisecond;
  run.seed = 51;
  run.mix = StressMix();
  const auto result = ycsb::RunWorkload(cluster, index, keys, run);

  EXPECT_GT(result.ops(), 100u) << "survivable partitions must keep serving";
  EXPECT_GT(result.failures().unavailable, 0u)
      << "the dead server's key range never surfaced";
  // kUnavailable (and benign NotFound from the mix) are the only failure
  // modes: no timeouts, aborts, or mystery statuses.
  EXPECT_EQ(result.failures().timed_out, 0u);
  EXPECT_EQ(result.failures().aborted, 0u);
  EXPECT_EQ(result.failures().out_of_memory, 0u);
  EXPECT_EQ(result.failures().other, 0u);
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

// The acceptance run: at R=2 the same mid-run server death is invisible to
// correctness — zero fault-induced failures, clean audit, and a sound
// (replication-aware) inspection — across eight exploration seeds.
TEST(ServerLossTest, ReplicatedRunSurvivesServerDeathAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 4;
    fc.replication_factor = 2;
    fc.lock_lease_ns = 100 * kMicrosecond;
    Cluster cluster(fc, 64 << 20);
    IndexConfig config;
    config.page_size = 256;
    config.head_node_interval = 4;
    FineGrainedIndex index(cluster, config);
    const uint64_t keys = 4000;
    ASSERT_TRUE(index.BulkLoad(MakeData(keys)).ok());
    cluster.fabric().KillServer(2, 8 * kMillisecond);

    ycsb::RunConfig run;
    run.num_clients = 16;
    run.warmup = 0;
    run.duration = 20 * kMillisecond;
    run.seed = seed;
    run.gc_interval = 6 * kMillisecond;
    run.mix = StressMix();
    const auto result = ycsb::RunWorkload(cluster, index, keys, run);

    EXPECT_GT(result.ops(), 100u) << "seed " << seed;
    // NotFound is workload noise (updates/deletes of absent keys); every
    // fault-induced failure class must be zero.
    EXPECT_EQ(result.failures().unavailable, 0u) << "seed " << seed;
    EXPECT_EQ(result.failures().timed_out, 0u) << "seed " << seed;
    EXPECT_EQ(result.failures().aborted, 0u) << "seed " << seed;
    EXPECT_EQ(result.failures().out_of_memory, 0u) << "seed " << seed;
    EXPECT_EQ(result.failures().other, 0u) << "seed " << seed;
    EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
        << "seed " << seed << ": "
        << cluster.fabric().CheckAuditClean().ToString();

    const auto report = IndexInspector::Inspect(cluster.fabric(), index);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.ToString();
  }
}

// A split's round-robin allocation whose drawn server dies with the FAA in
// flight (the cursor never moves) must move on to the next live server
// instead of failing the insert: at R=2 inside AllocPage, the re-draw every
// caller gets, and at R=1 in AllocPageRoundRobin. Single client, one leaf:
// a probe run finds a server that an insert into the leaf never touches
// and counts that server's verb effects up to the insert that splits; the
// split is then replayed with a crash point on exactly its allocation FAA,
// the first verb the drawn server executes during that insert.
template <typename Index>
struct SplitAllocRig {
  explicit SplitAllocRig(rdma::FabricConfig fc)
      : cluster(fc, 16 << 20), index(cluster, Config()) {
    std::vector<KV> data;
    for (uint64_t i = 0; i < 100; ++i) data.push_back({i * 64, i});
    EXPECT_TRUE(index.BulkLoad(data).ok());
    cluster.fabric().SetNumClients(1);
    ctx = std::make_unique<nam::ClientContext>(0, cluster.fabric(), 256, 1);
  }

  static rdma::FabricConfig Fabric(uint32_t replication = 2) {
    rdma::FabricConfig fc;
    fc.num_memory_servers = 4;
    fc.replication_factor = replication;
    return fc;
  }

  static IndexConfig Config() {
    IndexConfig config;
    config.page_size = 256;
    return config;
  }

  Status Insert(btree::Key key) {
    struct Driver {
      static sim::Task<> Go(Index& index, nam::ClientContext& ctx,
                            btree::Key key, Status* out) {
        *out = co_await index.Insert(ctx, key, key);
      }
    };
    Status status;
    sim::Spawn(cluster.simulator(), Driver::Go(index, *ctx, key, &status));
    cluster.simulator().Run();
    return status;
  }

  Cluster cluster;
  Index index;
  std::unique_ptr<nam::ClientContext> ctx;
};

TEST(ServerLossTest, SplitAllocationMovesOnWhenDrawnServerDiesMidFaa) {
  constexpr uint32_t kServers = 4;
  for (const uint32_t replication : {1u, 2u}) {
    SCOPED_TRACE(replication == 1 ? "R=1" : "R=2");
    // Probe: which servers does a plain insert into the leaf of key 0 touch?
    SplitAllocRig<FineGrainedIndex> probe(
        SplitAllocRig<FineGrainedIndex>::Fabric(replication));
    rdma::Fabric& pf = probe.cluster.fabric();
    std::vector<uint64_t> before(kServers);
    for (uint32_t s = 0; s < kServers; ++s) {
      before[s] = pf.server_verbs_executed(s);
    }
    ASSERT_TRUE(probe.Insert(1).ok());
    ASSERT_EQ(probe.ctx->alloc_rr, 0u) << "the first insert already split";
    uint32_t drawn = kServers;
    for (uint32_t s = 0; s < kServers && drawn == kServers; ++s) {
      if (pf.server_verbs_executed(s) == before[s]) drawn = s;
    }
    ASSERT_LT(drawn, kServers) << "every server serves the leaf's insert path";

    // Fill the leaf until an insert draws an allocation at `drawn`.
    probe.ctx->alloc_rr = drawn;
    btree::Key split_key = 0;
    uint64_t drawn_effects = 0;
    for (btree::Key k = 2; k < 64 && split_key == 0; ++k) {
      drawn_effects = pf.server_verbs_executed(drawn);
      ASSERT_TRUE(probe.Insert(k).ok());
      if (probe.ctx->alloc_rr != drawn) split_key = k;
    }
    ASSERT_NE(split_key, 0u) << "the leaf never split";

    // Replay with `drawn` dying on its first verb of the splitting insert.
    rdma::FabricConfig fc =
        SplitAllocRig<FineGrainedIndex>::Fabric(replication);
    fc.server_crash_points = {{drawn, drawn_effects}};
    SplitAllocRig<FineGrainedIndex> rig(fc);
    ASSERT_TRUE(rig.Insert(1).ok());
    rig.ctx->alloc_rr = drawn;
    for (btree::Key k = 2; k < split_key; ++k) {
      ASSERT_TRUE(rig.Insert(k).ok()) << "key " << k;
    }
    EXPECT_TRUE(rig.cluster.fabric().ServerAlive(drawn));
    const Status split = rig.Insert(split_key);
    EXPECT_FALSE(rig.cluster.fabric().ServerAlive(drawn))
        << "the crash point missed the allocation FAA";
    EXPECT_TRUE(split.ok()) << split.ToString();
    EXPECT_TRUE(rig.Insert(split_key + 1).ok());
    EXPECT_TRUE(rig.cluster.fabric().CheckAuditClean().ok())
        << rig.cluster.fabric().CheckAuditClean().ToString();
    const auto report =
        IndexInspector::Inspect(rig.cluster.fabric(), rig.index);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

// The coarse-grained one-sided design allocates a partition's pages on its
// owner server, a fixed-server AllocPage caller. Under R=2 the owner dying
// at any verb of a splitting insert, its allocation FAA included, must be
// survived: a mid-FAA death moves the allocation to the next live server
// as a death before the draw does.
TEST(ServerLossTest, OwnerSplitSurvivesOwnerDeathAtEveryVerb) {
  using Rig = SplitAllocRig<CoarseOneSidedIndex>;
  Rig probe(Rig::Fabric());
  const rdma::MemoryRegion& owner = probe.cluster.memory_server(0).region();
  btree::Key split_key = 0;
  uint64_t first = 0;
  for (btree::Key k = 1; k < 64 && split_key == 0; ++k) {
    const uint64_t cursor = owner.allocated();
    first = probe.cluster.fabric().server_verbs_executed(0);
    ASSERT_TRUE(probe.Insert(k).ok());
    if (owner.allocated() != cursor) split_key = k;
  }
  ASSERT_NE(split_key, 0u) << "the owner's leaf never split";
  const uint64_t last = probe.cluster.fabric().server_verbs_executed(0);

  for (uint64_t at = first; at < last; ++at) {
    SCOPED_TRACE("owner dies at verb effect " + std::to_string(at));
    rdma::FabricConfig fc = Rig::Fabric();
    fc.server_crash_points = {{0, at}};
    Rig rig(fc);
    for (btree::Key k = 1; k < split_key; ++k) {
      ASSERT_TRUE(rig.Insert(k).ok()) << "key " << k;
    }
    const Status split = rig.Insert(split_key);
    EXPECT_FALSE(rig.cluster.fabric().ServerAlive(0));
    EXPECT_TRUE(split.ok()) << split.ToString();
    EXPECT_TRUE(rig.Insert(split_key + 1).ok());
    EXPECT_TRUE(rig.cluster.fabric().CheckAuditClean().ok())
        << rig.cluster.fabric().CheckAuditClean().ToString();
    const auto report =
        IndexInspector::Inspect(rig.cluster.fabric(), rig.index);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

// ServerTree (the RPC designs' server-side tree) surfaces region
// exhaustion as kResourceExhausted through the insert RPC instead of
// asserting the whole process away; reads keep working on the full tree.
TEST(ResourceExhaustionTest, CoarseGrainedInsertsSurfaceResourceExhausted) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 1;
  Cluster cluster(fc, 64 * 1024);  // tiny region: splits run it dry
  IndexConfig config;
  config.page_size = 256;
  CoarseGrainedIndex index(cluster, config);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 1500; ++i) data.push_back({i * 4, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  nam::ClientContext ctx(0, cluster.fabric(), config.page_size, 1);
  struct Driver {
    static sim::Task<> Go(CoarseGrainedIndex& index, nam::ClientContext& ctx,
                          uint64_t* ok_count, uint64_t* rex_count) {
      for (uint64_t k = 0; k < 6000; ++k) {
        const Status s = co_await index.Insert(ctx, k * 4 + 1, k);
        if (s.ok()) {
          (*ok_count)++;
        } else if (s.IsResourceExhausted()) {
          (*rex_count)++;
        } else {
          ADD_FAILURE() << "unexpected status " << s.ToString();
        }
      }
      // The tree stays fully readable after exhaustion.
      const LookupResult hit = co_await index.Lookup(ctx, 4);
      EXPECT_TRUE(hit.found);
    }
  };
  uint64_t ok_count = 0;
  uint64_t rex_count = 0;
  sim::Spawn(cluster.simulator(),
             Driver::Go(index, ctx, &ok_count, &rex_count));
  cluster.simulator().Run();
  EXPECT_GT(ok_count, 0u);
  EXPECT_GT(rex_count, 0u) << "the region never filled; shrink it";
}

}  // namespace
}  // namespace namtree::index
