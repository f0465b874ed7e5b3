// Tests for the happens-before race detector (ViolationKind::kRemoteRace):
// injected write-write, read-write, and lock-elided races — driven through
// raw fabric verbs, bypassing the RemoteOps protocol helpers — must each be
// flagged, while HB edges (lock hand-off, version validation, program
// order, chained verbs) must keep the sanctioned protocol silent. Also
// covers the violation-log dedup/cap and the verb replay trace.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
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

  void Run() { cluster.simulator().Run(); }

  /// One full clean protocol cycle as `client`: CAS-lock the version word,
  /// WRITE back the locked image, FAA(+1) to release. The first cycle
  /// teaches the auditor the word and (via the full-page write) its page
  /// extent.
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

  /// Full-page WRITE with no lock: the word value keeps the current
  /// version, so the missing lock (and any HB race) is the only fault.
  Task<> UnlockedWrite(uint32_t client, uint64_t payload) {
    std::vector<uint8_t> image(kPage, 0);
    std::memcpy(image.data(), &expected_version_, 8);
    std::memcpy(image.data() + 8, &payload, 8);
    co_await fabric().Write(client, page, image.data(), kPage);
  }

  /// Full-page READ covering the version word: a validated read.
  Task<> ValidatedRead(uint32_t client) {
    std::vector<uint8_t> image(kPage, 0);
    co_await fabric().Read(client, page, image.data(), kPage);
  }

  /// 8-byte READ into the page body, skipping the version word: the
  /// lock-elided access pattern the detector exists to catch.
  Task<> ElidedRead(uint32_t client, uint64_t offset) {
    uint64_t value = 0;
    co_await fabric().Read(client, page.Plus(offset), &value, 8);
  }

  Cluster cluster;
  RemotePtr page;
  uint64_t expected_version_ = 0;
};

#define REQUIRE_AUDITOR(rig)                                         \
  if ((rig).auditor() == nullptr) {                                  \
    GTEST_SKIP() << "built with -DNAMTREE_AUDIT=OFF";                \
  }

size_t RaceCount(const VerbAuditor& auditor) {
  return auditor.CountOfKind(ViolationKind::kRemoteRace);
}

/// The first recorded kRemoteRace, or nullptr.
const Violation* FirstRace(const VerbAuditor& auditor) {
  for (const Violation& v : auditor.violations()) {
    if (v.kind == ViolationKind::kRemoteRace) return &v;
  }
  return nullptr;
}

TEST(RaceDetectorTest, UnsyncedWriteWriteRaceIsFlagged) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.Run();
  ASSERT_EQ(rig.auditor()->violation_count(), 0u);

  // Two different clients publish page images with no lock and no
  // synchronization between them: each write races its predecessor even
  // though they land at distinct virtual times — the detector reasons in
  // happens-before, not wall-clock order.
  Spawn(rig.cluster.simulator(), rig.UnlockedWrite(1, 0xB1));
  rig.Run();
  Spawn(rig.cluster.simulator(), rig.UnlockedWrite(2, 0xB2));
  rig.Run();

  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kWriteWithoutLock), 2u);
  EXPECT_EQ(RaceCount(*rig.auditor()), 2u);
  // Dedup folds repeats on the same word: two distinct records total, and
  // the discipline verdict stays first in the log.
  EXPECT_EQ(rig.auditor()->violation_count(), 2u);
  EXPECT_EQ(rig.auditor()->violations()[0].kind,
            ViolationKind::kWriteWithoutLock);
  const Violation* race = FirstRace(*rig.auditor());
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->occurrences, 2u);
  // The race report carries both verbs' records.
  EXPECT_NE(race->detail.find("WRITE"), std::string::npos) << race->detail;
  EXPECT_NE(race->detail.find("vs"), std::string::npos) << race->detail;
}

TEST(RaceDetectorTest, ValidatedReaderVsUnlockedWriterRaces) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  // Client 1 owns the page history, so its later rogue write is ordered
  // (program order) after every prior write — the only unordered pair left
  // is writer-vs-reader.
  Spawn(rig.cluster.simulator(), rig.CleanCycle(1, 0xAA));
  rig.Run();
  Spawn(rig.cluster.simulator(), rig.ValidatedRead(2));
  rig.Run();
  ASSERT_EQ(rig.auditor()->violation_count(), 0u);

  Spawn(rig.cluster.simulator(), rig.UnlockedWrite(1, 0xBB));
  rig.Run();

  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kWriteWithoutLock), 1u);
  EXPECT_EQ(RaceCount(*rig.auditor()), 1u);
  const Violation* race = FirstRace(*rig.auditor());
  ASSERT_NE(race, nullptr);
  // The racing pair is client 2's validated read vs client 1's write: an
  // unlocked writer is exactly what version validation cannot defend
  // against (the reader already validated and moved on).
  EXPECT_NE(race->detail.find("READ client=2"), std::string::npos)
      << race->detail;
  EXPECT_EQ(race->client, 1u);
}

TEST(RaceDetectorTest, LockElidedReadIsRacedByDisciplinedWriter) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.Run();

  // Client 2 first reads the page with validation (ordering it after
  // client 0's release), then re-reads a field lock-elided — trusting the
  // earlier validation to still hold.
  Spawn(rig.cluster.simulator(), rig.ValidatedRead(2));
  rig.Run();
  Spawn(rig.cluster.simulator(), rig.ElidedRead(2, 16));
  rig.Run();
  ASSERT_EQ(rig.auditor()->violation_count(), 0u);

  // Client 1 then runs a *fully disciplined* locked write cycle. Lock
  // discipline does not save the elided reader — it skipped the version
  // word, so nothing makes it retry — and the race must be the only
  // finding: elision detection does not depend on the writer misbehaving.
  Spawn(rig.cluster.simulator(), rig.CleanCycle(1, 0xBB));
  rig.Run();

  EXPECT_EQ(rig.auditor()->violation_count(), 1u)
      << rig.fabric().CheckAuditClean().ToString();
  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kWriteWithoutLock), 0u);
  EXPECT_EQ(RaceCount(*rig.auditor()), 1u);
  const Violation* race = FirstRace(*rig.auditor());
  ASSERT_NE(race, nullptr);
  EXPECT_NE(race->detail.find("READ client=2"), std::string::npos)
      << race->detail;
}

TEST(RaceDetectorTest, HandoffAndValidationSuppressRaces) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  // Cross-client lock hand-offs and validated reads interleaved: every
  // pair is HB-ordered through the release->acquire and release->validate
  // edges, so the detector must stay silent.
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xA0));
  rig.Run();
  Spawn(rig.cluster.simulator(), rig.ValidatedRead(2));
  rig.Run();
  Spawn(rig.cluster.simulator(), rig.CleanCycle(1, 0xA1));
  rig.Run();
  Spawn(rig.cluster.simulator(), rig.ValidatedRead(3));
  rig.Run();
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xA2));
  rig.Run();

  EXPECT_EQ(rig.auditor()->violation_count(), 0u)
      << rig.fabric().CheckAuditClean().ToString();
}

TEST(RaceDetectorTest, RepeatedViolationsDeduplicate) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.Run();

  // Five rogue writes, alternating clients so each also races its
  // predecessor: the log must stay at two records (one per kind+word)
  // while the occurrence counters keep the full tally.
  for (int i = 0; i < 5; ++i) {
    Spawn(rig.cluster.simulator(), rig.UnlockedWrite(1 + (i % 2), 0xC0 + i));
    rig.Run();
  }

  EXPECT_EQ(rig.auditor()->violation_count(), 2u);
  EXPECT_EQ(rig.auditor()->CountOfKind(ViolationKind::kWriteWithoutLock), 5u);
  EXPECT_EQ(RaceCount(*rig.auditor()), 5u);
  EXPECT_EQ(rig.auditor()->total_violation_occurrences(), 10u);
  EXPECT_EQ(rig.auditor()->suppressed_violations(), 0u);
  EXPECT_EQ(rig.auditor()->violations()[0].occurrences, 5u);
  // Describe surfaces the fold.
  EXPECT_NE(rig.auditor()->violations()[0].Describe().find("x5"),
            std::string::npos);
}

Task<> DoubleUnlockCycle(Fabric& fabric, uint32_t client, RemotePtr word) {
  const uint64_t observed =
      (co_await fabric.CompareAndSwap(client, word, 0, 1)).value;
  EXPECT_EQ(observed, 0u);
  (void)co_await fabric.FetchAndAdd(client, word, 1);  // release: word = 2
  (void)co_await fabric.FetchAndAdd(client, word, 1);  // double unlock
}

TEST(RaceDetectorTest, DistinctViolationStorageIsCapped) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  // One distinct (kind, target) per page, across more pages than the
  // storage cap: the log stops growing at kMaxStoredViolations and counts
  // the overflow instead of allocating without bound.
  const size_t kPages = VerbAuditor::kMaxStoredViolations + 44;
  struct Sweep {
    static Task<> Go(Rig& rig, size_t pages) {
      for (size_t i = 0; i < pages; ++i) {
        const RemotePtr word =
            rig.cluster.memory_server(0).region().AllocateLocal(kPage);
        co_await DoubleUnlockCycle(rig.fabric(), 0, word);
      }
    }
  };
  Spawn(rig.cluster.simulator(), Sweep::Go(rig, kPages));
  rig.Run();

  EXPECT_EQ(rig.auditor()->violation_count(),
            VerbAuditor::kMaxStoredViolations);
  EXPECT_EQ(rig.auditor()->suppressed_violations(), 44u);
  EXPECT_EQ(rig.auditor()->total_violation_occurrences(), kPages);
}

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

TEST(RaceDetectorTest, VerbTraceRecordsChainIds) {
  Rig rig;
  REQUIRE_AUDITOR(rig);
  Spawn(rig.cluster.simulator(), rig.CleanCycle(0, 0xAA));
  rig.Run();
  Spawn(rig.cluster.simulator(),
        ChainedCycle(rig.fabric(), rig.page, 0, 2, 0xBB));
  rig.Run();

  const auto& trace = rig.auditor()->trace();
  ASSERT_FALSE(trace.empty());
  bool chained_write = false;
  for (const auto& record : trace) {
    if (std::string(record.op) == "WRITE" && record.chain != 0) {
      chained_write = true;
    }
  }
  EXPECT_TRUE(chained_write)
      << "chain members must carry their doorbell-chain id:\n"
      << rig.auditor()->DumpTrace();
  EXPECT_NE(rig.auditor()->DumpTrace().find("CAS"), std::string::npos);

  // The ring is bounded and can be disabled.
  rig.auditor()->set_trace_capacity(2);
  EXPECT_LE(rig.auditor()->trace().size(), 2u);
  rig.auditor()->set_trace_capacity(0);
  Spawn(rig.cluster.simulator(), rig.ValidatedRead(1));
  rig.Run();
  EXPECT_TRUE(rig.auditor()->trace().empty());
}

}  // namespace
}  // namespace namtree::rdma
