// Tests for the simulated RDMA fabric: verb semantics (READ/WRITE/CAS/FAA),
// remote pointers, memory regions, SRQ delivery, RPC round trips, the cost
// model (latency composition, engine serialization, co-location), and the
// golden verb matrix that pins every verb's observable outcome.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nam/cluster.h"
#include "nam/memory_server.h"
#include "rdma/fabric.h"
#include "rdma/memory_region.h"
#include "rdma/remote_ptr.h"
#include "sim/task.h"

namespace namtree::rdma {
namespace {

using nam::Cluster;
using sim::Spawn;
using sim::Task;

FabricConfig TestConfig() {
  FabricConfig config;
  config.num_memory_servers = 2;
  config.workers_per_server = 2;
  return config;
}

TEST(RemotePtrTest, PackAndUnpack) {
  RemotePtr p = RemotePtr::Make(5, 123456);
  EXPECT_FALSE(p.is_null());
  EXPECT_EQ(p.server_id(), 5u);
  EXPECT_EQ(p.offset(), 123456u);
  EXPECT_EQ(sizeof(p), 8u);
}

TEST(RemotePtrTest, NullIsZero) {
  RemotePtr null;
  EXPECT_TRUE(null.is_null());
  EXPECT_EQ(null.raw(), 0u);
  EXPECT_EQ(RemotePtr(0).raw(), RemotePtr::Null().raw());
}

TEST(RemotePtrTest, ExtremesRoundTrip) {
  RemotePtr p = RemotePtr::Make(127, RemotePtr::kOffsetMask);
  EXPECT_EQ(p.server_id(), 127u);
  EXPECT_EQ(p.offset(), RemotePtr::kOffsetMask);
  RemotePtr q = RemotePtr::Make(0, 0);
  EXPECT_FALSE(q.is_null());
  EXPECT_EQ(q.server_id(), 0u);
  EXPECT_EQ(q.offset(), 0u);
}

TEST(RemotePtrTest, PlusDisplacesWithinServer) {
  RemotePtr p = RemotePtr::Make(3, 1000);
  RemotePtr q = p.Plus(24);
  EXPECT_EQ(q.server_id(), 3u);
  EXPECT_EQ(q.offset(), 1024u);
}

TEST(MemoryRegionTest, LocalAllocationBumpsCursor) {
  MemoryRegion region(0, 1 << 20);
  const uint64_t before = region.allocated();
  RemotePtr p = region.AllocateLocal(1024);
  ASSERT_FALSE(p.is_null());
  EXPECT_EQ(p.offset(), before);
  EXPECT_EQ(region.allocated(), before + 1024);
}

TEST(MemoryRegionTest, ExhaustionReturnsNull) {
  MemoryRegion region(0, 4096);
  RemotePtr p = region.AllocateLocal(8192);
  EXPECT_TRUE(p.is_null());
}

Task<> DoReadWrite(Fabric& fabric, RemotePtr ptr, bool* ok) {
  uint64_t value = 0xDEADBEEFCAFEF00Dull;
  co_await fabric.Write(0, ptr, &value, sizeof(value));
  uint64_t readback = 0;
  co_await fabric.Read(0, ptr, &readback, sizeof(readback));
  *ok = (readback == value);
}

TEST(FabricTest, WriteThenReadRoundTrips) {
  Cluster cluster(TestConfig(), 1 << 20);
  RemotePtr ptr = cluster.memory_server(1).region().AllocateLocal(64);
  bool ok = false;
  Spawn(cluster.simulator(), DoReadWrite(cluster.fabric(), ptr, &ok));
  cluster.simulator().Run();
  EXPECT_TRUE(ok);
}

Task<> DoCas(Fabric& fabric, RemotePtr ptr, std::vector<uint64_t>* results) {
  results->push_back((co_await fabric.CompareAndSwap(0, ptr, 0, 111)).value);
  results->push_back((co_await fabric.CompareAndSwap(0, ptr, 0, 222)).value);
  results->push_back((co_await fabric.CompareAndSwap(0, ptr, 111, 333)).value);
}

TEST(FabricTest, CompareAndSwapSemantics) {
  Cluster cluster(TestConfig(), 1 << 20);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(8);
  std::vector<uint64_t> results;
  Spawn(cluster.simulator(), DoCas(cluster.fabric(), ptr, &results));
  cluster.simulator().Run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], 0u);    // swap succeeded
  EXPECT_EQ(results[1], 111u);  // failed: returns current
  EXPECT_EQ(results[2], 111u);  // swap succeeded again
  EXPECT_EQ(cluster.memory_server(0).region().ReadU64(ptr.offset()), 333u);
}

Task<> DoFaa(Fabric& fabric, RemotePtr ptr, uint32_t client, int n) {
  for (int i = 0; i < n; ++i) {
    co_await fabric.FetchAndAdd(client, ptr, 1);
  }
}

TEST(FabricTest, ConcurrentFetchAndAddIsAtomic) {
  Cluster cluster(TestConfig(), 1 << 20);
  cluster.fabric().SetNumClients(4);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(8);
  for (uint32_t c = 0; c < 4; ++c) {
    Spawn(cluster.simulator(), DoFaa(cluster.fabric(), ptr, c, 25));
  }
  cluster.simulator().Run();
  EXPECT_EQ(cluster.memory_server(0).region().ReadU64(ptr.offset()), 100u);
}

// Remote allocation via FETCH_AND_ADD on the region's allocation cursor
// (the paper's RDMA_ALLOC).
Task<> RemoteAlloc(Fabric& fabric, uint32_t client, uint32_t server,
                   uint64_t bytes, std::vector<uint64_t>* offsets) {
  RemotePtr cursor =
      RemotePtr::Make(server, MemoryRegion::kAllocCursorOffset);
  const uint64_t offset =
      (co_await fabric.FetchAndAdd(client, cursor, bytes)).value;
  offsets->push_back(offset);
}

TEST(FabricTest, RemoteAllocationYieldsDisjointPages) {
  Cluster cluster(TestConfig(), 1 << 20);
  cluster.fabric().SetNumClients(8);
  std::vector<uint64_t> offsets;
  for (uint32_t c = 0; c < 8; ++c) {
    Spawn(cluster.simulator(),
          RemoteAlloc(cluster.fabric(), c, 0, 1024, &offsets));
  }
  cluster.simulator().Run();
  ASSERT_EQ(offsets.size(), 8u);
  std::sort(offsets.begin(), offsets.end());
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i] - offsets[i - 1], 1024u) << "overlapping pages";
  }
}

Task<> MeasuredRead(Fabric& fabric, RemotePtr ptr, uint32_t len,
                    SimTime* latency) {
  std::vector<uint8_t> buf(len);
  const SimTime start = fabric.simulator().now();
  co_await fabric.Read(0, ptr, buf.data(), len);
  *latency = fabric.simulator().now() - start;
}

TEST(FabricTest, ReadLatencyMatchesCostModel) {
  FabricConfig config = TestConfig();
  Cluster cluster(config, 1 << 20);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(1024);
  SimTime latency = 0;
  Spawn(cluster.simulator(),
        MeasuredRead(cluster.fabric(), ptr, 1024, &latency));
  cluster.simulator().Run();
  // post + request wire + engine + payload + response wire (+ link time of
  // the 16-byte request, a few ns).
  const SimTime payload =
      static_cast<SimTime>(1024 / (config.link_bandwidth_bytes_per_sec / 1e9));
  const SimTime expected_min = config.nic_post_ns + 2 * config.wire_latency_ns +
                               config.onesided_engine_ns + payload;
  EXPECT_GE(latency, expected_min);
  EXPECT_LE(latency, expected_min + 100);
}

TEST(FabricTest, EngineSerializesConcurrentReadsToOneServer) {
  FabricConfig config = TestConfig();
  Cluster cluster(config, 1 << 20);
  cluster.fabric().SetNumClients(8);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(1024);
  // 8 concurrent 1KB reads from different clients to the same server: the
  // engine (1 op at a time) makes total time ~ 8 * engine occupancy.
  struct Runner {
    static Task<> Read(Fabric& fabric, uint32_t client, RemotePtr ptr) {
      std::vector<uint8_t> buf(1024);
      co_await fabric.Read(client, ptr, buf.data(), 1024);
    }
  };
  for (uint32_t c = 0; c < 8; ++c) {
    Spawn(cluster.simulator(), Runner::Read(cluster.fabric(), c, ptr));
  }
  const SimTime end = cluster.simulator().Run();
  EXPECT_GE(end, 8 * config.onesided_engine_ns);
  const auto stats = cluster.fabric().server_stats(0);
  EXPECT_EQ(stats.tx_bytes, 8u * 1024u);
}

// ---- Two-sided RPC ----------------------------------------------------------

Task<> EchoHandler(nam::MemoryServer& server, IncomingRpc rpc) {
  co_await sim::Delay(server.fabric().simulator(), server.RequestOverhead());
  RpcResponse resp;
  resp.status = 0;
  resp.arg0 = rpc.request.arg0 + 1;
  resp.payload = rpc.request.payload;
  server.fabric().Respond(server.server_id(), rpc, std::move(resp));
}

Task<> CallEcho(Fabric& fabric, uint32_t client, uint32_t server,
                uint64_t arg, std::vector<uint64_t>* replies) {
  RpcRequest req;
  req.op = 7;
  req.arg0 = arg;
  RpcResponse resp = co_await fabric.Call(client, server, std::move(req));
  replies->push_back(resp.arg0);
}

TEST(RpcTest, EchoRoundTrip) {
  Cluster cluster(TestConfig(), 1 << 20);
  cluster.fabric().SetNumClients(1);
  cluster.memory_server(0).Start(EchoHandler);
  std::vector<uint64_t> replies;
  Spawn(cluster.simulator(),
        CallEcho(cluster.fabric(), 0, 0, 41, &replies));
  cluster.simulator().Run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], 42u);
}

TEST(RpcTest, WorkerPoolBoundsConcurrency) {
  // With 2 workers and a fixed handler cost, 10 requests take ~5 waves.
  FabricConfig config = TestConfig();
  config.per_client_poll_ns = 0;
  config.qpi_penalty = 1.0;
  Cluster cluster(config, 1 << 20);
  cluster.fabric().SetNumClients(10);
  cluster.memory_server(0).Start(EchoHandler);
  std::vector<uint64_t> replies;
  for (uint32_t c = 0; c < 10; ++c) {
    Spawn(cluster.simulator(), CallEcho(cluster.fabric(), c, 0, c, &replies));
  }
  const SimTime end = cluster.simulator().Run();
  EXPECT_EQ(replies.size(), 10u);
  EXPECT_GE(end, 5 * config.rpc_fixed_ns);  // waves serialized on 2 workers
  EXPECT_EQ(cluster.memory_server(0).requests_handled(), 10u);
}

TEST(RpcTest, RequestsToDistinctServersRunInParallel) {
  FabricConfig config = TestConfig();
  config.per_client_poll_ns = 0;
  config.qpi_penalty = 1.0;
  Cluster cluster(config, 1 << 20);
  cluster.fabric().SetNumClients(2);
  cluster.memory_server(0).Start(EchoHandler);
  cluster.memory_server(1).Start(EchoHandler);
  std::vector<uint64_t> replies;
  Spawn(cluster.simulator(), CallEcho(cluster.fabric(), 0, 0, 1, &replies));
  Spawn(cluster.simulator(), CallEcho(cluster.fabric(), 1, 1, 2, &replies));
  const SimTime end = cluster.simulator().Run();
  EXPECT_EQ(replies.size(), 2u);
  // Both finish in about one RPC latency (they do not share a server).
  EXPECT_LT(end, 2 * (config.rpc_fixed_ns + 2 * config.wire_latency_ns) + 4000);
}

// ---- Batched (selectively signaled) reads -----------------------------------

Task<> BatchRead(Fabric& fabric, std::vector<Fabric::ChainOp> reqs,
                 SimTime* latency) {
  const SimTime start = fabric.simulator().now();
  co_await fabric.ReadBatch(0, reqs);
  *latency = fabric.simulator().now() - start;
}

TEST(FabricTest, BatchedReadsAreCheaperThanSequentialReads) {
  FabricConfig config = TestConfig();
  Cluster cluster(config, 1 << 20);
  auto& region = cluster.memory_server(0).region();
  std::vector<Fabric::ChainOp> reqs;
  std::vector<std::vector<uint8_t>> bufs(8, std::vector<uint8_t>(1024));
  for (int i = 0; i < 8; ++i) {
    RemotePtr p = region.AllocateLocal(1024);
    region.WriteU64(p.offset(), 1000 + i);
    reqs.push_back(Fabric::ChainOp::Read(p, bufs[i].data(), 1024));
  }
  SimTime batch_latency = 0;
  Spawn(cluster.simulator(),
        BatchRead(cluster.fabric(), reqs, &batch_latency));
  cluster.simulator().Run();
  // Contents arrived.
  for (int i = 0; i < 8; ++i) {
    uint64_t v;
    std::memcpy(&v, bufs[i].data(), 8);
    EXPECT_EQ(v, 1000u + i);
  }
  // The batch pipelines: far cheaper than 8 full round trips.
  const SimTime sequential = 8 * (config.nic_post_ns +
                                  2 * config.wire_latency_ns +
                                  config.onesided_engine_ns);
  EXPECT_LT(batch_latency, sequential);
}

// ---- Co-location -------------------------------------------------------------

TEST(FabricTest, ColocatedAccessSkipsTheWire) {
  FabricConfig config = TestConfig();
  config.colocate = true;
  config.memory_servers_per_machine = 1;
  config.clients_per_compute_machine = 40;
  Cluster cluster(config, 1 << 20);
  RemotePtr ptr = cluster.memory_server(0).region().AllocateLocal(1024);

  SimTime local_latency = 0;
  // Client 0 lives on compute machine 0 == memory machine 0.
  Spawn(cluster.simulator(),
        MeasuredRead(cluster.fabric(), ptr, 1024, &local_latency));
  cluster.simulator().Run();
  EXPECT_LT(local_latency, config.wire_latency_ns);
  EXPECT_TRUE(cluster.fabric().IsLocal(0, 0));
  EXPECT_FALSE(cluster.fabric().IsLocal(0, 1));
}


// ---- Golden verb matrix --------------------------------------------------------
//
// Every fabric entry point × route × fault case, one fresh cluster per cell.
// Each cell renders everything a verb can change: completion time and status,
// pre-image, target bytes, per-server stats, the non-zero fabric.* registry
// counters, and the auditor's verb trace. The rendering is compared against
// tests/golden/verb_matrix.txt, so any change to a verb's cost, ordering,
// fault handling or RNG consumption shows up as a per-cell diff. On mismatch
// the full actual rendering is written to verb_matrix.actual in the working
// directory. Builds without the auditor skip the `audit`/`trace` lines.

enum class MatrixVerb {
  kRead, kWrite, kCas, kFaa, kReadChain, kWriteWriteChain, kWriteCasChain,
  kFencedChain, kEpoch, kCall,
};
enum class MatrixCase {
  kHealthy, kDropVerb, kDropCompletion, kDuplicate, kClientDiesAtPost,
  kClientDiesInFlight, kServerDiesInFlight, kLatencyJitter, kScheduleJitter,
  kContended,
};

const char* MatrixVerbName(MatrixVerb v) {
  switch (v) {
    case MatrixVerb::kRead: return "READ";
    case MatrixVerb::kWrite: return "WRITE";
    case MatrixVerb::kCas: return "CAS";
    case MatrixVerb::kFaa: return "FAA";
    case MatrixVerb::kReadChain: return "chain(READ,READ)";
    case MatrixVerb::kWriteWriteChain: return "chain(WRITE,WRITE)";
    case MatrixVerb::kWriteCasChain: return "chain(WRITE,CAS)";
    case MatrixVerb::kFencedChain: return "chain(WRITE,fenced WRITE)";
    case MatrixVerb::kEpoch: return "EPOCH";
    case MatrixVerb::kCall: return "CALL";
  }
  return "?";
}

const char* MatrixCaseName(MatrixCase c) {
  switch (c) {
    case MatrixCase::kHealthy: return "healthy";
    case MatrixCase::kDropVerb: return "drop-verb";
    case MatrixCase::kDropCompletion: return "drop-completion";
    case MatrixCase::kDuplicate: return "duplicate";
    case MatrixCase::kClientDiesAtPost: return "client-dies-at-post";
    case MatrixCase::kClientDiesInFlight: return "client-dies-in-flight";
    case MatrixCase::kServerDiesInFlight: return "server-dies-in-flight";
    case MatrixCase::kLatencyJitter: return "latency-jitter";
    case MatrixCase::kScheduleJitter: return "schedule-jitter";
    case MatrixCase::kContended: return "contended";
  }
  return "?";
}

uint64_t Fnv1a(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

// What the driver coroutine observed when the verb completed.
struct MatrixOutcome {
  SimTime done = 0;
  std::string status;
  uint64_t value = 0;
};

const char* CompletionName(VerbCompletion c) {
  return c == VerbCompletion::kOk ? "ok" : "lost";
}

Task<> DriveMatrixVerb(Fabric& fabric, MatrixVerb verb, uint32_t target,
                       RemotePtr a, RemotePtr b, RemotePtr word,
                       RemotePtr backup, uint8_t* buf_a, uint8_t* buf_b,
                       const uint8_t* payload_a, const uint8_t* payload_b,
                       MatrixOutcome* out) {
  constexpr uint32_t kLen = 64;
  switch (verb) {
    case MatrixVerb::kRead:
      out->status =
          CompletionName(co_await fabric.Read(0, a, buf_a, kLen));
      break;
    case MatrixVerb::kWrite:
      out->status =
          CompletionName(co_await fabric.Write(0, a, payload_a, kLen));
      break;
    case MatrixVerb::kCas: {
      const AtomicResult r =
          co_await fabric.CompareAndSwap(0, word, 0x100, 0x200);
      out->status = CompletionName(r.completion);
      out->value = r.value;
      break;
    }
    case MatrixVerb::kFaa: {
      const AtomicResult r = co_await fabric.FetchAndAdd(0, word, 5);
      out->status = CompletionName(r.completion);
      out->value = r.value;
      break;
    }
    case MatrixVerb::kReadChain:
    case MatrixVerb::kWriteWriteChain:
    case MatrixVerb::kWriteCasChain:
    case MatrixVerb::kFencedChain: {
      // Built outside the co_await: GCC 12 cannot keep a braced
      // initializer list alive across a coroutine suspension.
      std::vector<Fabric::ChainOp> ops;
      if (verb == MatrixVerb::kReadChain) {
        ops.push_back(Fabric::ChainOp::Read(a, buf_a, kLen));
        ops.push_back(Fabric::ChainOp::Read(b, buf_b, kLen));
      } else {
        ops.push_back(Fabric::ChainOp::Write(a, payload_a, kLen));
      }
      if (verb == MatrixVerb::kWriteWriteChain) {
        ops.push_back(Fabric::ChainOp::Write(b, payload_b, kLen));
      } else if (verb == MatrixVerb::kWriteCasChain) {
        ops.push_back(Fabric::ChainOp::Cas(word, 0x100, 0x200, &out->value));
      } else if (verb == MatrixVerb::kFencedChain) {
        ops.push_back(Fabric::ChainOp::Write(backup, payload_b, kLen));
        ops.back().fence_server = static_cast<int32_t>(target);
      }
      out->status =
          CompletionName(co_await fabric.PostChain(0, ops));
      break;
    }
    case MatrixVerb::kEpoch: {
      // Client 2 hosts its liveness record on server 2 % 2 == target.
      const EpochReadResult r = co_await fabric.ReadClientEpoch(0, 2);
      out->status = r.status.ToString();
      out->value = r.alive ? 1 : 0;
      break;
    }
    case MatrixVerb::kCall: {
      RpcRequest req;
      req.op = 7;
      req.arg0 = 41;
      const RpcResponse r = co_await fabric.Call(0, target, std::move(req));
      out->status = "rpc/" + std::to_string(r.status);
      out->value = r.arg0;
      break;
    }
  }
  out->done = fabric.simulator().now();
}

// Competing traffic for the contended case: client 1 reads and then writes
// the cell's second buffer while the verb under test is in flight.
Task<> DrivePeer(Fabric& fabric, RemotePtr b, uint8_t* buf,
                 std::vector<SimTime>* done) {
  co_await fabric.Read(1, b, buf, 64);
  done->push_back(fabric.simulator().now());
  co_await fabric.Write(1, b, buf, 64);
  done->push_back(fabric.simulator().now());
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string RenderMatrixCell(MatrixVerb verb, bool colocated,
                             MatrixCase fault) {
  constexpr uint32_t kTarget = 0;  // co-located with client 0 when colocated
  constexpr uint32_t kOther = 1;   // always remote
  constexpr uint32_t kLen = 64;
  FabricConfig config;
  config.num_memory_servers = 2;
  config.memory_servers_per_machine = 1;
  config.workers_per_server = 2;
  config.colocate = colocated;
  switch (fault) {
    case MatrixCase::kDropVerb:
      config.verb_fault_points.push_back(
          {0, 0, FabricConfig::VerbFaultPoint::Kind::kDropVerb});
      break;
    case MatrixCase::kDropCompletion:
      config.verb_fault_points.push_back(
          {0, 0, FabricConfig::VerbFaultPoint::Kind::kDropCompletion});
      break;
    case MatrixCase::kDuplicate:
      config.verb_fault_points.push_back(
          {0, 0, FabricConfig::VerbFaultPoint::Kind::kDuplicate});
      break;
    case MatrixCase::kClientDiesAtPost:
      config.crash_points.push_back({0, 0});
      break;
    case MatrixCase::kLatencyJitter:
      config.latency_jitter = 0.5;
      break;
    case MatrixCase::kScheduleJitter:
      config.schedule_seed = 7;
      config.schedule_jitter_ns = 50;
      break;
    default:
      break;
  }
  Cluster cluster(config, 1 << 16);
  Fabric& fabric = cluster.fabric();
  fabric.SetNumClients(3);
  for (uint32_t s = 0; s < cluster.num_memory_servers(); ++s) {
    cluster.memory_server(s).Start(EchoHandler);
  }
  MemoryRegion& region = cluster.memory_server(kTarget).region();
  const RemotePtr a = region.AllocateLocal(kLen);
  const RemotePtr b = region.AllocateLocal(kLen);
  const RemotePtr word = region.AllocateLocal(8);
  const RemotePtr backup =
      cluster.memory_server(kOther).region().AllocateLocal(kLen);
  std::vector<uint8_t> payload_a(kLen), payload_b(kLen);
  for (uint32_t i = 0; i < kLen; ++i) {
    region.at(a.offset())[i] = static_cast<uint8_t>(0x10 + i);
    region.at(b.offset())[i] = static_cast<uint8_t>(0x50 + i);
    cluster.memory_server(kOther).region().at(backup.offset())[i] =
        static_cast<uint8_t>(0x90 + i);
    payload_a[i] = static_cast<uint8_t>(0xA0 + i);
    payload_b[i] = static_cast<uint8_t>(0xE0 - i);
  }
  region.WriteU64(word.offset(), 0x100);
  if (fault == MatrixCase::kClientDiesInFlight) fabric.KillClient(0, 1);
  if (fault == MatrixCase::kServerDiesInFlight) fabric.KillServer(kTarget, 1);
  // The epoch probe's subject dies before the probe's effect lands, so the
  // snapshot shows when the effect ran.
  fabric.KillClient(2, 1);

  std::vector<uint8_t> buf_a(kLen), buf_b(kLen), buf_peer(kLen);
  MatrixOutcome out;
  std::vector<SimTime> peer_done;
  Spawn(cluster.simulator(),
        DriveMatrixVerb(fabric, verb, kTarget, a, b, word, backup,
                        buf_a.data(), buf_b.data(), payload_a.data(),
                        payload_b.data(), &out));
  if (fault == MatrixCase::kContended) {
    Spawn(cluster.simulator(),
          DrivePeer(fabric, b, buf_peer.data(), &peer_done));
  }
  const SimTime end = cluster.simulator().Run();

  std::ostringstream os;
  os << "[" << MatrixVerbName(verb) << " "
     << (colocated ? "co-located" : "remote") << " " << MatrixCaseName(fault)
     << "]\n";
  os << "  done=" << out.done << " end=" << end << " status=" << out.status
     << " value=" << Hex(out.value) << "\n";
  if (!peer_done.empty()) {
    os << "  peer";
    for (SimTime t : peer_done) os << " done=" << t;
    os << "\n";
  }
  os << "  mem a=" << Hex(Fnv1a(region.at(a.offset()), kLen))
     << " b=" << Hex(Fnv1a(region.at(b.offset()), kLen))
     << " word=" << Hex(region.ReadU64(word.offset())) << " backup="
     << Hex(Fnv1a(cluster.memory_server(kOther).region().at(backup.offset()),
                  kLen))
     << " buf_a=" << Hex(Fnv1a(buf_a.data(), kLen))
     << " buf_b=" << Hex(Fnv1a(buf_b.data(), kLen)) << "\n";
  for (uint32_t s = 0; s < cluster.num_memory_servers(); ++s) {
    const Fabric::ServerStats st = fabric.server_stats(s);
    os << "  server" << s << " tx=" << st.tx_bytes << " rx=" << st.rx_bytes
       << " verbs=" << st.verbs << " busy=" << st.engine_busy
       << " reads=" << st.reads << " writes=" << st.writes
       << " atomics=" << st.atomics << " sends=" << st.sends
       << " executed=" << fabric.server_verbs_executed(s)
       << " handled=" << cluster.memory_server(s).requests_handled()
       << " alive=" << fabric.ServerAlive(s) << "\n";
  }
  os << "  client0 verbs=" << fabric.client_verbs(0)
     << " alive=" << fabric.ClientAlive(0) << "\n";
  os << "  counters";
  const metrics::Snapshot snapshot = fabric.metrics().Collect();
  for (const metrics::FamilySample& f : snapshot.families()) {
    if (f.name.rfind("fabric.", 0) != 0) continue;
    if (f.kind != metrics::MetricKind::kCounter) continue;
    for (const auto& [labels, value] : f.values) {
      if (value != 0) os << " " << f.name << "=" << value;
    }
  }
  os << "\n";
  if (const VerbAuditor* auditor = fabric.auditor()) {
    os << "  audit " << fabric.CheckAuditClean().ToString() << "\n";
    std::istringstream trace(auditor->DumpTrace());
    for (std::string line; std::getline(trace, line);) {
      os << "  trace " << line << "\n";
    }
  }
  return os.str();
}

// Splits a rendering into per-cell blocks keyed by their header line,
// dropping audit-only lines when this build has no auditor.
std::vector<std::pair<std::string, std::string>> MatrixBlocks(
    const std::string& text, bool with_audit) {
  std::vector<std::pair<std::string, std::string>> blocks;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] == '[') {
      blocks.emplace_back(line, "");
      continue;
    }
    if (blocks.empty()) continue;
    if (!with_audit && (line.rfind("  audit ", 0) == 0 ||
                        line.rfind("  trace ", 0) == 0)) {
      continue;
    }
    blocks.back().second += line + "\n";
  }
  return blocks;
}

TEST(VerbMatrixTest, MatchesGolden) {
  std::string actual;
  for (int v = 0; v <= static_cast<int>(MatrixVerb::kCall); ++v) {
    for (bool colocated : {false, true}) {
      for (int c = 0; c <= static_cast<int>(MatrixCase::kContended);
           ++c) {
        actual += RenderMatrixCell(static_cast<MatrixVerb>(v), colocated,
                                   static_cast<MatrixCase>(c));
      }
    }
  }
  std::ifstream file(NAMTREE_GOLDEN_DIR "/verb_matrix.txt");
  std::stringstream golden;
  golden << file.rdbuf();
#if NAMTREE_AUDIT
  constexpr bool with_audit = true;
#else
  constexpr bool with_audit = false;
#endif
  const auto want = MatrixBlocks(golden.str(), with_audit);
  const auto got = MatrixBlocks(actual, with_audit);
  bool same = want.size() == got.size();
  EXPECT_EQ(want.size(), got.size()) << "cell count differs from the golden";
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    EXPECT_EQ(want[i].first, got[i].first);
    EXPECT_EQ(want[i].second, got[i].second) << "cell " << got[i].first;
    same = same && want[i] == got[i];
  }
  if (!same) std::ofstream("verb_matrix.actual") << actual;
}

}  // namespace
}  // namespace namtree::rdma
