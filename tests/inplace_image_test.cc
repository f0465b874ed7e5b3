// Tests for in-place READ images (head-node prefetch): a batch member's
// effect pins its target instead of copying it, and every later WRITE, CAS
// or FAA that overlaps a pinned image copies the effect-time bytes out
// first. The consumer must always read the bytes its READ observed; a
// released image is never copied; a re-posted batch re-pins; a member
// dropped by a dead server serves nothing and the scan re-reads it.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "index/leaf_level.h"
#include "nam/cluster.h"
#include "rdma/audit.h"
#include "rdma/fabric.h"
#include "sim/task.h"

namespace namtree::rdma {
namespace {

using nam::Cluster;
using sim::Spawn;
using sim::Task;

constexpr uint32_t kPage = 1024;
constexpr uint32_t kPages = 3;

FabricConfig TestConfig() {
  FabricConfig config;
  config.num_memory_servers = 2;
  config.workers_per_server = 2;
  return config;
}

/// `kPages` adjacent pages on server 0, page k filled with byte 0x10 + k,
/// each read by one member of an in-place batch into its own buffer.
struct Rig {
  explicit Rig(FabricConfig config = TestConfig())
      : cluster(config, 1 << 20), buffers(kPages, std::vector<uint8_t>(kPage)) {
    MemoryRegion& region = cluster.memory_server(0).region();
    for (uint32_t k = 0; k < kPages; ++k) {
      const RemotePtr page = region.AllocateLocal(kPage);
      std::memset(region.at(page.offset()), 0x10 + k, kPage);
      // A sentinel the member buffers hold until a write copies them out.
      std::memset(buffers[k].data(), 0xEE, kPage);
      reads.push_back(
          Fabric::ChainOp::Read(page, buffers[k].data(), kPage, &images[k]));
    }
  }

  Fabric& fabric() { return cluster.fabric(); }
  uint8_t* live(uint32_t k) {
    return cluster.memory_server(0).region().at(reads[k].target.offset());
  }
  uint64_t Images(const char* outcome) {
    return cluster.fabric().metrics().Value("fabric.inplace_images",
                                            "outcome", outcome);
  }

  Cluster cluster;
  std::vector<std::vector<uint8_t>> buffers;
  InPlaceImage images[kPages];
  std::vector<Fabric::ChainOp> reads;
};

bool AllBytes(const uint8_t* bytes, uint8_t value) {
  for (uint32_t i = 0; i < kPage; ++i) {
    if (bytes[i] != value) return false;
  }
  return true;
}

/// Which verb lands between the batch's effects and the consumption.
enum class Writer { kWrite, kLockCas, kFaa, kPartialWrite };

/// Posts the batch as client 0, then lands `writer` on page 0 as client 1,
/// then records what every image serves.
Task<> BatchThenMutate(Rig* rig, Writer writer,
                       std::vector<std::vector<uint8_t>>* served,
                       std::vector<bool>* pinned) {
  Fabric& fabric = rig->fabric();
  EXPECT_EQ(co_await fabric.ReadBatch(0, rig->reads), VerbCompletion::kOk);
  const RemotePtr page0 = rig->reads[0].target;
  std::vector<uint8_t> payload(kPage, 0x77);
  switch (writer) {
    case Writer::kWrite:
      (void)co_await fabric.Write(1, page0, payload.data(), kPage);
      break;
    case Writer::kLockCas:
      // The protocol's lock-acquire shape on the page's version word.
      (void)co_await fabric.CompareAndSwap(1, page0, 0x1010101010101010ull,
                                           0x1010101010101011ull);
      break;
    case Writer::kFaa:
      (void)co_await fabric.FetchAndAdd(1, page0, 2);
      break;
    case Writer::kPartialWrite:
      // Eight bytes in the middle of the page, not at its start.
      (void)co_await fabric.Write(1, page0.Plus(kPage / 2), payload.data(),
                                  8);
      break;
  }
  for (uint32_t k = 0; k < kPages; ++k) {
    served->emplace_back(rig->images[k].data(),
                         rig->images[k].data() + kPage);
    pinned->push_back(rig->images[k].pinned());
  }
  fabric.ReleaseImages(rig->images);
}

void ExpectEffectTimeBytes(Writer writer) {
  Rig rig;
  std::vector<std::vector<uint8_t>> served;
  std::vector<bool> pinned;
  Spawn(rig.cluster.simulator(),
        BatchThenMutate(&rig, writer, &served, &pinned));
  rig.cluster.simulator().Run();
  ASSERT_EQ(served.size(), kPages);
  // The write landed on page 0 after the READ's effect: its image still
  // serves the effect-time bytes, now from its copied-out buffer.
  const uint32_t landed = writer == Writer::kPartialWrite ? kPage / 2 : 0;
  EXPECT_NE(rig.live(0)[landed], 0x10) << "the write did not land";
  for (uint32_t k = 0; k < kPages; ++k) {
    EXPECT_TRUE(AllBytes(served[k].data(), static_cast<uint8_t>(0x10 + k)))
        << "image " << k << " does not serve its effect-time bytes";
  }
  EXPECT_FALSE(pinned[0]);
  EXPECT_TRUE(AllBytes(rig.buffers[0].data(), 0x10));
  // Neighbouring pages were not overlapped: still pinned, never copied.
  for (uint32_t k = 1; k < kPages; ++k) {
    EXPECT_TRUE(pinned[k]) << "image " << k;
    EXPECT_TRUE(AllBytes(rig.buffers[k].data(), 0xEE)) << "image " << k;
  }
  EXPECT_EQ(rig.Images("copied"), 1u);
  EXPECT_EQ(rig.Images("served"), kPages - 1);
  EXPECT_TRUE(rig.fabric().CheckAuditClean().ok())
      << rig.fabric().CheckAuditClean().ToString();
}

TEST(InPlaceImageTest, WriteAfterEffectIsCopiedOut) {
  ExpectEffectTimeBytes(Writer::kWrite);
}

TEST(InPlaceImageTest, LockCasAfterEffectIsCopiedOut) {
  ExpectEffectTimeBytes(Writer::kLockCas);
}

TEST(InPlaceImageTest, FaaAfterEffectIsCopiedOut) {
  ExpectEffectTimeBytes(Writer::kFaa);
}

TEST(InPlaceImageTest, WriteInsideThePageIsCopiedOut) {
  ExpectEffectTimeBytes(Writer::kPartialWrite);
}

TEST(InPlaceImageTest, FailedCasLeavesTheImagePinned) {
  Rig rig;
  struct Driver {
    static Task<> Go(Rig* rig, bool* pinned) {
      Fabric& fabric = rig->fabric();
      (void)co_await fabric.ReadBatch(0, rig->reads);
      // The compare fails: no byte changes, nothing to copy.
      (void)co_await fabric.CompareAndSwap(1, rig->reads[0].target, 5, 6);
      *pinned = rig->images[0].pinned();
      fabric.ReleaseImages(rig->images);
    }
  };
  bool pinned = false;
  Spawn(rig.cluster.simulator(), Driver::Go(&rig, &pinned));
  rig.cluster.simulator().Run();
  EXPECT_TRUE(pinned);
  EXPECT_EQ(rig.Images("copied"), 0u);
}

TEST(InPlaceImageTest, WriteBeforeEffectIsVisible) {
  Rig rig;
  struct Driver {
    static Task<> Go(Rig* rig, std::vector<uint8_t>* served, bool* pinned) {
      Fabric& fabric = rig->fabric();
      std::vector<uint8_t> payload(kPage, 0x77);
      (void)co_await fabric.Write(1, rig->reads[1].target, payload.data(),
                                  kPage);
      (void)co_await fabric.ReadBatch(0, rig->reads);
      served->assign(rig->images[1].data(), rig->images[1].data() + kPage);
      *pinned = rig->images[1].pinned();
      fabric.ReleaseImages(rig->images);
    }
  };
  std::vector<uint8_t> served;
  bool pinned = false;
  Spawn(rig.cluster.simulator(), Driver::Go(&rig, &served, &pinned));
  rig.cluster.simulator().Run();
  ASSERT_EQ(served.size(), kPage);
  EXPECT_TRUE(AllBytes(served.data(), 0x77));
  EXPECT_TRUE(pinned);
  EXPECT_EQ(rig.Images("copied"), 0u);
}

TEST(InPlaceImageTest, ReleasedImageIsNeverCopied) {
  Rig rig;
  struct Driver {
    static Task<> Go(Rig* rig) {
      Fabric& fabric = rig->fabric();
      (void)co_await fabric.ReadBatch(0, rig->reads);
      fabric.ReleaseImages(rig->images);
      std::vector<uint8_t> payload(kPage, 0x77);
      for (const Fabric::ChainOp& read : rig->reads) {
        (void)co_await fabric.Write(1, read.target, payload.data(), kPage);
      }
    }
  };
  Spawn(rig.cluster.simulator(), Driver::Go(&rig));
  rig.cluster.simulator().Run();
  for (uint32_t k = 0; k < kPages; ++k) {
    EXPECT_EQ(rig.images[k].data(), nullptr);
    EXPECT_FALSE(rig.images[k].pinned());
    EXPECT_TRUE(AllBytes(rig.buffers[k].data(), 0xEE)) << "image " << k;
  }
  EXPECT_EQ(rig.Images("copied"), 0u);
  EXPECT_EQ(rig.Images("served"), kPages);
}

// An exact fault point drops the batch's first member: the other members
// land and pin, the batch completes kLost, and the caller re-posts it. A
// write between the two posts copies out the first post's image; the
// re-post pins every member again at its new effect, once.
TEST(InPlaceImageTest, RepostedBatchRepinsItsImages) {
  FabricConfig config = TestConfig();
  config.verb_fault_points.push_back(
      {.client = 0,
       .after_verb = 0,
       .kind = FabricConfig::VerbFaultPoint::Kind::kDropVerb});
  Rig rig(config);
  struct Driver {
    static Task<> Go(Rig* rig, std::vector<VerbCompletion>* completions,
                     std::vector<uint8_t>* served, bool* pinned) {
      Fabric& fabric = rig->fabric();
      completions->push_back(co_await fabric.ReadBatch(0, rig->reads));
      // The dropped member never reached an effect.
      EXPECT_EQ(rig->images[0].data(), nullptr);
      EXPECT_TRUE(rig->images[1].pinned());
      std::vector<uint8_t> payload(kPage, 0x77);
      (void)co_await fabric.Write(1, rig->reads[1].target, payload.data(),
                                  kPage);
      EXPECT_FALSE(rig->images[1].pinned());
      completions->push_back(co_await fabric.ReadBatch(0, rig->reads));
      for (uint32_t k = 0; k < kPages; ++k) {
        EXPECT_TRUE(rig->images[k].pinned()) << "image " << k;
      }
      // A second write copies the re-pinned image out exactly once, with
      // the bytes of the re-post's effect.
      std::vector<uint8_t> again(kPage, 0x99);
      (void)co_await fabric.Write(1, rig->reads[1].target, again.data(),
                                  kPage);
      served->assign(rig->images[1].data(), rig->images[1].data() + kPage);
      *pinned = rig->images[1].pinned();
      fabric.ReleaseImages(rig->images);
    }
  };
  std::vector<VerbCompletion> completions;
  std::vector<uint8_t> served;
  bool pinned = true;
  Spawn(rig.cluster.simulator(),
        Driver::Go(&rig, &completions, &served, &pinned));
  rig.cluster.simulator().Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], VerbCompletion::kLost);
  EXPECT_EQ(completions[1], VerbCompletion::kOk);
  ASSERT_EQ(served.size(), kPage);
  EXPECT_TRUE(AllBytes(served.data(), 0x77));
  EXPECT_FALSE(pinned);
  EXPECT_EQ(rig.Images("copied"), 2u);
  EXPECT_EQ(rig.Images("served"), kPages - 1);
}

TEST(InPlaceImageTest, DeadTargetMemberServesNothing) {
  Rig rig;
  MemoryRegion& other = rig.cluster.memory_server(1).region();
  const RemotePtr remote = other.AllocateLocal(kPage);
  std::vector<uint8_t> buffer(kPage, 0xEE);
  InPlaceImage image;
  rig.reads.push_back(
      Fabric::ChainOp::Read(remote, buffer.data(), kPage, &image));
  rig.fabric().KillServer(1);
  struct Driver {
    static Task<> Go(Rig* rig, InPlaceImage* image, bool* served_nothing) {
      Fabric& fabric = rig->fabric();
      (void)co_await fabric.ReadBatch(0, rig->reads);
      *served_nothing = image->data() == nullptr && !image->pinned();
      EXPECT_TRUE(rig->images[0].pinned());
      fabric.ReleaseImages(rig->images);
      fabric.ReleaseImages({image, 1});
    }
  };
  bool served_nothing = false;
  Spawn(rig.cluster.simulator(), Driver::Go(&rig, &image, &served_nothing));
  rig.cluster.simulator().Run();
  EXPECT_TRUE(served_nothing);
  EXPECT_TRUE(AllBytes(buffer.data(), 0xEE));
  EXPECT_EQ(rig.Images("served"), kPages);
}

// A writer that mutates region memory behind the fabric's back (no
// copy-out) makes a pinned image serve later bytes; the audited build
// reports it when the image is released.
TEST(InPlaceImageTest, AuditorFlagsAWriteThatBypassesTheHook) {
  Rig rig;
  if (rig.fabric().auditor() == nullptr) {
    GTEST_SKIP() << "auditor compiled out (NAMTREE_AUDIT=OFF)";
  }
  struct Driver {
    static Task<> Go(Rig* rig) {
      Fabric& fabric = rig->fabric();
      (void)co_await fabric.ReadBatch(0, rig->reads);
      rig->live(2)[17] ^= 0xFF;  // not a verb: nothing copies image 2 out
      fabric.ReleaseImages(rig->images);
    }
  };
  Spawn(rig.cluster.simulator(), Driver::Go(&rig));
  rig.cluster.simulator().Run();
  EXPECT_EQ(rig.fabric().auditor()->CountOfKind(ViolationKind::kUnhookedWrite),
            1u);
  EXPECT_FALSE(rig.fabric().CheckAuditClean().ok());
}

// End to end through LeafLevel::ScanChain on a replicated fabric with one
// server dead: batch members bound for it serve nothing, so the scan
// releases them and re-reads each leaf from its promoted replica.
TEST(InPlaceImageTest, ScanRereadsDeadTargetSlots) {
  constexpr uint32_t kLeafPage = 256;
  FabricConfig config;
  config.num_memory_servers = 4;
  config.replication_factor = 2;
  Cluster cluster(config, 16 << 20);
  std::vector<btree::KV> data;
  for (uint64_t i = 0; i < 2000; ++i) data.push_back({i * 2, i});
  index::IndexConfig index_config;
  index_config.page_size = kLeafPage;
  index_config.head_node_interval = 8;
  index::LeafLevel::BuildResult built;
  ASSERT_TRUE(
      index::LeafLevel::Build(cluster.fabric(), data, index_config, &built)
          .ok());
  cluster.fabric().SyncReplicasFromPrimaries();
  cluster.fabric().KillServer(1);
  nam::ClientContext ctx(0, cluster.fabric(), kLeafPage, 1);
  struct Driver {
    static Task<> Go(index::RemoteOps ops, RemotePtr first, uint64_t* n,
                     Status* status) {
      *n = co_await index::LeafLevel::ScanChain(ops, first, 0,
                                                btree::kInfinityKey, nullptr,
                                                status, {});
    }
  };
  uint64_t n = 0;
  Status status;
  Spawn(cluster.simulator(),
        Driver::Go(index::RemoteOps(ctx), built.first, &n, &status));
  cluster.simulator().Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(n, data.size());
  EXPECT_GT(cluster.fabric().metrics().Value("fabric.inplace_images",
                                             "outcome", "served"),
            0u);
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

}  // namespace
}  // namespace namtree::rdma
