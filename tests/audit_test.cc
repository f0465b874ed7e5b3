// Tests for the RDMA verb-protocol audit layer (src/rdma/audit.h): the
// clean one-sided protocol must produce zero findings, and deliberately
// seeded violations — injected through raw fabric verbs, bypassing the
// RemoteOps protocol helpers — must each be flagged.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "btree/types.h"
#include "nam/cluster.h"
#include "rdma/audit.h"
#include "rdma/fabric.h"

namespace namtree::rdma {
namespace {

using nam::Cluster;
using sim::Spawn;
using sim::Task;

constexpr uint32_t kPage = 256;

struct Rig {
  Rig() : cluster(Config(), 1 << 20) {
    cluster.fabric().SetNumClients(4);
    page = cluster.memory_server(0).region().AllocateLocal(kPage);
  }

  static FabricConfig Config() {
    FabricConfig config;
    config.num_memory_servers = 1;
    return config;
  }

  VerbAuditor* auditor() { return cluster.fabric().auditor(); }
  Fabric& fabric() { return cluster.fabric(); }

  /// Runs one full clean protocol cycle as `client`: CAS-lock the version
  /// word, WRITE back the locked image, FAA(+1) to release. Afterwards the
  /// word is tracked by the auditor.
  Task<> CleanCycle(uint32_t client, uint64_t payload) {
    const uint64_t version =
        (co_await fabric().CompareAndSwap(client, page, expected_version_,
                                          expected_version_ | 1))
            .value;
    EXPECT_EQ(version, expected_version_) << "unexpected lock contention";
    std::vector<uint8_t> image(kPage, 0);
    const uint64_t locked = expected_version_ | 1;
    std::memcpy(image.data(), &locked, 8);
    std::memcpy(image.data() + 8, &payload, 8);
    co_await fabric().Write(client, page, image.data(), kPage);
    co_await fabric().FetchAndAdd(client, page, 1);
    expected_version_ += 2;
  }

  Cluster cluster;
  RemotePtr page;
  uint64_t expected_version_ = 0;
};

#define REQUIRE_AUDITOR(rig)                                         \
  if ((rig).auditor() == nullptr) {                                  \
    GTEST_SKIP() << "built with -DNAMTREE_AUDIT=OFF";                \
  }

TEST(AuditTest, CleanProtocolReportsNothing) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  for (int i = 0; i < 3; ++i) {
    Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0x1000 + i));
    rig.cluster.simulator().Run();
  }
  EXPECT_EQ(rig.auditor()->tracked_words(), 1u);
  EXPECT_EQ(rig.auditor()->violation_count(), 0u);
  EXPECT_TRUE(rig.fabric().CheckAuditClean().ok());
}

Task<> RawWrite(Fabric& fabric, uint32_t client, RemotePtr dst,
                uint64_t word, uint64_t payload) {
  std::vector<uint8_t> image(kPage, 0);
  std::memcpy(image.data(), &word, 8);
  std::memcpy(image.data() + 8, &payload, 8);
  co_await fabric.Write(client, dst, image.data(), kPage);
}

TEST(AuditTest, WriteWithoutLockIsFlagged) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.cluster.simulator().Run();
  ASSERT_EQ(rig.auditor()->violation_count(), 0u);

  // Seed: publish a page image without CAS-ing the lock bit first. The
  // written word keeps the current (unlocked) version, so only the missing
  // lock is at fault.
  Spawn(rig.cluster.simulator(),
        RawWrite(rig.fabric(), 1, rig.page, /*word=*/2, 0xBB));
  rig.cluster.simulator().Run();

  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kWriteWithoutLock), 1u);
  // The unlocked write also races the previous (disciplined) write-back:
  // nothing orders client 1 after client 0's release.
  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kRemoteRace), 1u);
  EXPECT_EQ(rig.auditor()->violation_count(), 2u);
  const Status status = rig.fabric().CheckAuditClean();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("WriteWithoutLock"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(rig.auditor()->violations()[0].client, 1u);
}

Task<> RawFaa(Fabric& fabric, uint32_t client, RemotePtr target,
              uint64_t add) {
  (void)co_await fabric.FetchAndAdd(client, target, add);
}

TEST(AuditTest, DoubleUnlockIsFlagged) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.cluster.simulator().Run();

  // Seed: a second FAA after the release — the lock bit is already clear.
  Spawn(rig.cluster.simulator(), RawFaa(rig.fabric(), 0, rig.page, 1));
  rig.cluster.simulator().Run();

  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kUnlockWithoutLock),
            1u);
}

Task<> RawCas(Fabric& fabric, uint32_t client, RemotePtr target,
              uint64_t expected, uint64_t desired) {
  (void)co_await fabric.CompareAndSwap(client, target, expected, desired);
}

TEST(AuditTest, UnlockByNonHolderIsFlagged) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.cluster.simulator().Run();

  // Client 1 locks; client 2 releases. The release itself is well-formed
  // (lock bit set, version bumps), but the wrong client issued it.
  Spawn(rig.cluster.simulator(), RawCas(rig.fabric(), 1, rig.page, 2, 3));
  rig.cluster.simulator().Run();
  Spawn(rig.cluster.simulator(), RawFaa(rig.fabric(), 2, rig.page, 1));
  rig.cluster.simulator().Run();

  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kUnlockByNonHolder),
            1u);
}

TEST(AuditTest, VersionRegressionIsFlagged) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  for (int i = 0; i < 2; ++i) {
    Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA + i));
    rig.cluster.simulator().Run();
  }
  ASSERT_EQ(rig.auditor()->violation_count(), 0u);

  // Seed: CAS the version word from 4 back to 0 — readers validating
  // against a cached version 4 would wrongly conclude the page is intact.
  Spawn(rig.cluster.simulator(), RawCas(rig.fabric(), 1, rig.page, 4, 0));
  rig.cluster.simulator().Run();

  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kVersionRegression),
            1u);
}

Task<> RawRead(Fabric& fabric, uint32_t client, RemotePtr src) {
  std::vector<uint8_t> image(kPage, 0);
  co_await fabric.Read(client, src, image.data(), kPage);
}

TEST(AuditTest, TornReadDuringUnlockedWriteIsFlagged) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.cluster.simulator().Run();
  ASSERT_EQ(rig.auditor()->violation_count(), 0u);

  // Seed: an unlocked write-back racing a reader. The read's 16-byte
  // request overtakes the page-sized write payload on the wire, so its
  // copy-out lands while the unprotected write is still in flight — the
  // paper-hardware equivalent of observing a half-DMA'd page.
  Spawn(rig.cluster.simulator(), RawRead(rig.fabric(), 2, rig.page));
  Spawn(rig.cluster.simulator(),
        RawWrite(rig.fabric(), 1, rig.page, /*word=*/2, 0xCC));
  rig.cluster.simulator().Run();

  EXPECT_GE(rig.auditor()->CountOfKind(ViolationKind::kTornRead), 1u);
  EXPECT_GE(rig.auditor()->CountOfKind(ViolationKind::kWriteWithoutLock), 1u);
  // The torn-read finding names the reader.
  for (const Violation& v : rig.auditor()->violations()) {
    if (v.kind == ViolationKind::kTornRead) {
      EXPECT_EQ(v.client, 2u);
    }
  }
}

/// The doorbell-batched release of RemoteOps::WriteUnlockPage, driven as a
/// raw chain: CAS-lock, then one PostChain of {full-page WRITE carrying the
/// locked word, 8-byte WRITE installing the clean +2 version}.
Task<> ChainedCycle(Fabric& fabric, RemotePtr page, uint32_t client,
                    uint64_t version, uint64_t payload) {
  const uint64_t locked = btree::MakeLockedWord(version, client);
  const uint64_t observed =
      (co_await fabric.CompareAndSwap(client, page, version, locked)).value;
  EXPECT_EQ(observed, version) << "unexpected lock contention";
  std::vector<uint8_t> image(kPage, 0);
  std::memcpy(image.data(), &locked, 8);
  std::memcpy(image.data() + 8, &payload, 8);
  const uint64_t unlocked = version + 2;
  std::vector<Fabric::ChainOp> chain;
  chain.push_back(Fabric::ChainOp::Write(page, image.data(), kPage));
  chain.push_back(Fabric::ChainOp::Write(page, &unlocked, 8));
  co_await fabric.PostChain(client, chain);
}

TEST(AuditTest, ChainedWriteUnlockShapePasses) {
  // The combined {page WRITE, unlock WRITE} chain is the sanctioned release
  // shape: the auditor must judge the word-sized lock-clearing tail by the
  // unlock rules (holder, version bump) and report nothing.
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.cluster.simulator().Run();
  for (int i = 0; i < 3; ++i) {
    Spawn(rig.cluster.simulator(),
          ChainedCycle(rig.fabric(), rig.page, 0, 2 + 2 * i, 0xB0 + i));
    rig.cluster.simulator().Run();
  }
  EXPECT_EQ(rig.auditor()->violation_count(), 0u)
      << rig.fabric().CheckAuditClean().ToString();
  EXPECT_TRUE(rig.auditor()->LockedWords().empty());
}

Task<> RawWordWrite(Fabric& fabric, uint32_t client, RemotePtr dst,
                    uint64_t word) {
  co_await fabric.Write(client, dst, &word, 8);
}

TEST(AuditTest, UnlockShapedWriteWithoutLockIsFlagged) {
  // The same word-sized lock-clearing WRITE outside a locked cycle — a torn
  // or replayed chain tail hitting an unlocked word — still reports, with
  // the precise unlock verdict rather than a generic write-without-lock.
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.cluster.simulator().Run();
  ASSERT_EQ(rig.auditor()->violation_count(), 0u);

  Spawn(rig.cluster.simulator(),
        RawWordWrite(rig.fabric(), 1, rig.page, /*word=*/4));
  rig.cluster.simulator().Run();

  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kUnlockWithoutLock),
            1u);
  EXPECT_EQ(rig.auditor()->violation_count(), 1u);
}

TEST(AuditTest, UnlockShapedWriteByNonHolderIsFlagged) {
  // Client 1 holds the lock; client 2 posts the well-formed unlock WRITE.
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.cluster.simulator().Run();

  Spawn(rig.cluster.simulator(),
        RawCas(rig.fabric(), 1, rig.page, 2, btree::MakeLockedWord(2, 1)));
  rig.cluster.simulator().Run();
  Spawn(rig.cluster.simulator(),
        RawWordWrite(rig.fabric(), 2, rig.page, /*word=*/4));
  rig.cluster.simulator().Run();

  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kUnlockByNonHolder),
            1u);
}

TEST(AuditTest, DisabledAuditorRecordsNothing) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  rig.auditor()->set_enabled(false);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.cluster.simulator().Run();
  Spawn(rig.cluster.simulator(),
        RawWrite(rig.fabric(), 1, rig.page, /*word=*/2, 0xBB));
  rig.cluster.simulator().Run();
  EXPECT_EQ(rig.auditor()->tracked_words(), 0u);
  EXPECT_EQ(rig.auditor()->violation_count(), 0u);
}

TEST(AuditTest, ViolationLogSurvivesClearAndReset) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.cluster.simulator().Run();
  Spawn(rig.cluster.simulator(), RawFaa(rig.fabric(), 0, rig.page, 1));
  rig.cluster.simulator().Run();
  ASSERT_EQ(rig.auditor()->violation_count(), 1u);
  EXPECT_FALSE(rig.auditor()->violations()[0].Describe().empty());

  rig.auditor()->ClearViolations();
  EXPECT_EQ(rig.auditor()->violation_count(), 0u);
  EXPECT_EQ(rig.auditor()->tracked_words(), 1u);  // tracking is kept

  rig.auditor()->Reset();
  EXPECT_EQ(rig.auditor()->tracked_words(), 0u);
}

}  // namespace
}  // namespace namtree::rdma
