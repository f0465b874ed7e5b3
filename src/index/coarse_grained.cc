#include "index/coarse_grained.h"

#include <algorithm>

namespace namtree::index {

using btree::Key;
using btree::KV;
using btree::Value;

CoarseGrainedIndex::CoarseGrainedIndex(nam::Cluster& cluster,
                                       IndexConfig config)
    : cluster_(cluster),
      config_(config),
      partitioner_(config.partition, cluster.num_memory_servers()),
      rpc_service_(cluster.AllocateRpcService()) {}

Status CoarseGrainedIndex::BulkLoad(std::span<const KV> sorted) {
  partitioner_.FitBoundaries(sorted, config_.partition_weights);

  // Slice the sorted data into per-server runs. Hash partitioning needs a
  // scatter pass; range partitioning slices contiguously.
  const uint32_t servers = cluster_.num_memory_servers();
  std::vector<std::vector<KV>> scattered;
  std::vector<std::span<const KV>> slices(servers);
  if (partitioner_.kind() == PartitionKind::kHash) {
    scattered.resize(servers);
    for (const KV& kv : sorted) {
      scattered[partitioner_.ServerFor(kv.key)].push_back(kv);
    }
    for (uint32_t s = 0; s < servers; ++s) slices[s] = scattered[s];
  } else {
    size_t begin = 0;
    for (uint32_t s = 0; s < servers; ++s) {
      const Key upper = partitioner_.UpperBoundOf(s);
      size_t end = begin;
      while (end < sorted.size() && sorted[end].key < upper) end++;
      slices[s] = sorted.subspan(begin, end - begin);
      begin = end;
    }
  }

  trees_.clear();
  for (uint32_t s = 0; s < servers; ++s) {
    nam::MemoryServer& server = cluster_.memory_server(s);
    trees_.push_back(std::make_unique<ServerTree>(server, config_.page_size));
    Status status = trees_[s]->Build(slices[s], config_.leaf_fill_percent);
    if (!status.ok()) return status;
    server.RegisterHandler(
        rpc_service_, [this](nam::MemoryServer& srv, rdma::IncomingRpc rpc) {
          return Handle(srv, std::move(rpc));
        });
  }
  // Seed backup replicas from the bulk-loaded primaries (no-op at R=1).
  cluster_.fabric().SyncReplicasFromPrimaries();
  return Status::OK();
}

sim::Task<> CoarseGrainedIndex::Handle(nam::MemoryServer& server,
                                       rdma::IncomingRpc rpc) {
  co_await sim::Delay(cluster_.simulator(), server.RequestOverhead());
  ServerTree& tree = *trees_[server.server_id()];
  rdma::RpcResponse resp;

  switch (rpc.request.op) {
    case kLookup: {
      const LookupResult result = co_await tree.Lookup(rpc.request.arg0);
      resp.status = result.found
                        ? static_cast<uint16_t>(StatusCode::kOk)
                        : static_cast<uint16_t>(StatusCode::kNotFound);
      resp.arg0 = result.value;
      break;
    }
    case kScan: {
      // Count-only scans are charged for their rows on the wire, but the
      // rows are never built.
      const bool count_only = rpc.request.arg2 != 0;
      std::vector<KV> hits;
      const uint64_t count = co_await tree.Scan(
          rpc.request.arg0, rpc.request.arg1, count_only ? nullptr : &hits);
      resp.status = static_cast<uint16_t>(StatusCode::kOk);
      resp.arg0 = count;
      if (count_only) resp.elided_words = static_cast<uint32_t>(2 * count);
      resp.payload.reserve(hits.size() * 2);
      for (const KV& kv : hits) {
        resp.payload.push_back(kv.key);
        resp.payload.push_back(kv.value);
      }
      break;
    }
    case kInsert: {
      const Status status =
          co_await tree.Insert(rpc.request.arg0, rpc.request.arg1);
      resp.status = static_cast<uint16_t>(status.code());
      break;
    }
    case kDelete: {
      const Status status = co_await tree.Delete(rpc.request.arg0);
      resp.status = static_cast<uint16_t>(status.code());
      break;
    }
    case kGc: {
      resp.arg0 = co_await tree.Compact();
      resp.status = static_cast<uint16_t>(StatusCode::kOk);
      break;
    }
    case kUpdate: {
      const Status status =
          co_await tree.Update(rpc.request.arg0, rpc.request.arg1);
      resp.status = static_cast<uint16_t>(status.code());
      break;
    }
    case kLookupAll: {
      std::vector<Value> values;
      resp.arg0 = co_await tree.LookupAll(rpc.request.arg0, &values);
      resp.status = static_cast<uint16_t>(StatusCode::kOk);
      resp.payload.assign(values.begin(), values.end());
      break;
    }
    case kBatch: {
      // Batched lookup frame: triples of [kLookup, key, 0] in the request
      // payload (only the key is read), pairs of [status, value] in the
      // response. Every lookup runs under this one handler dispatch — the
      // frame paid a single RequestOverhead above.
      const std::vector<uint64_t>& in = rpc.request.payload;
      resp.status = static_cast<uint16_t>(StatusCode::kOk);
      resp.arg0 = in.size() / 3;
      resp.payload.reserve((in.size() / 3) * 2);
      for (size_t i = 0; i + 2 < in.size(); i += 3) {
        const LookupResult result = co_await tree.Lookup(in[i + 1]);
        resp.payload.push_back(static_cast<uint16_t>(
            result.found ? StatusCode::kOk : StatusCode::kNotFound));
        resp.payload.push_back(result.value);
      }
      break;
    }
    default:
      resp.status = static_cast<uint16_t>(StatusCode::kUnsupported);
      break;
  }

  cluster_.fabric().Respond(server.server_id(), rpc, std::move(resp));
}

sim::Task<LookupResult> CoarseGrainedIndex::Lookup(nam::ClientContext& ctx,
                                                   Key key) {
  metrics::OpSpan span(ctx.trace(), "lookup");
  rdma::RpcRequest req;
  req.service = rpc_service_;
  req.op = kLookup;
  req.arg0 = key;
  rdma::RpcResponse resp =
      co_await ctx.Call(partitioner_.ServerFor(key), std::move(req));
  const auto code = static_cast<StatusCode>(resp.status);
  if (code == StatusCode::kOk) {
    co_return LookupResult{true, resp.arg0, Status::OK()};
  }
  if (code == StatusCode::kNotFound) {
    co_return LookupResult{false, 0, Status::OK()};
  }
  // Transport-level failure (dead caller / RPC deadline exhausted).
  co_return LookupResult{false, 0, Status::FromCode(code, "lookup rpc")};
}

sim::Task<uint64_t> CoarseGrainedIndex::Scan(nam::ClientContext& ctx, Key lo,
                                             Key hi, std::vector<KV>* out,
                                             Status* status) {
  metrics::OpSpan span(ctx.trace(), "scan");
  if (status != nullptr) *status = Status::OK();
  uint64_t found = 0;
  std::vector<KV> merged;
  const bool hash = partitioner_.kind() == PartitionKind::kHash;
  for (uint32_t server : partitioner_.ServersFor(lo, hi)) {
    rdma::RpcRequest req;
    req.service = rpc_service_;
    req.op = kScan;
    req.arg0 = lo;
    req.arg1 = hi;
    req.arg2 = out == nullptr ? 1 : 0;  // count-only: reply without rows
    rdma::RpcResponse resp = co_await ctx.Call(server, std::move(req));
    if (resp.status != static_cast<uint16_t>(StatusCode::kOk)) {
      // Transport failure (kUnavailable = dead caller/server, kTimedOut =
      // RPC deadline exhausted): report the partial count and the reason.
      if (status != nullptr) {
        *status = Status::FromCode(static_cast<StatusCode>(resp.status),
                                   "scan rpc");
      }
      break;
    }
    found += resp.arg0;
    if (out != nullptr) {
      std::vector<KV>& sink = hash ? merged : *out;
      for (size_t i = 0; i + 1 < resp.payload.size(); i += 2) {
        sink.push_back(KV{resp.payload[i], resp.payload[i + 1]});
      }
    }
  }
  if (out != nullptr && hash) {
    // Hash partitioning scatters the range over all servers: merge by key.
    // Stable so duplicates keep their per-server (insertion) order.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
    out->insert(out->end(), merged.begin(), merged.end());
  }
  co_return found;
}

sim::Task<Status> CoarseGrainedIndex::Insert(nam::ClientContext& ctx, Key key,
                                             Value value) {
  metrics::OpSpan span(ctx.trace(), "insert");
  rdma::RpcRequest req;
  req.service = rpc_service_;
  req.op = kInsert;
  req.arg0 = key;
  req.arg1 = value;
  rdma::RpcResponse resp =
      co_await ctx.Call(partitioner_.ServerFor(key), std::move(req));
  const auto code = static_cast<StatusCode>(resp.status);
  if (code == StatusCode::kOk) co_return Status::OK();
  if (code == StatusCode::kUnavailable || code == StatusCode::kTimedOut ||
      code == StatusCode::kResourceExhausted) {
    co_return Status::FromCode(code, "insert rpc");
  }
  co_return Status::Aborted("insert failed");
}

sim::Task<Status> CoarseGrainedIndex::Update(nam::ClientContext& ctx, Key key,
                                             Value value) {
  metrics::OpSpan span(ctx.trace(), "update");
  rdma::RpcRequest req;
  req.service = rpc_service_;
  req.op = kUpdate;
  req.arg0 = key;
  req.arg1 = value;
  rdma::RpcResponse resp =
      co_await ctx.Call(partitioner_.ServerFor(key), std::move(req));
  const auto code = static_cast<StatusCode>(resp.status);
  if (code == StatusCode::kOk) co_return Status::OK();
  if (code == StatusCode::kUnavailable || code == StatusCode::kTimedOut) {
    co_return Status::FromCode(code, "update rpc");
  }
  co_return Status::NotFound();
}

sim::Task<uint64_t> CoarseGrainedIndex::LookupAll(
    nam::ClientContext& ctx, Key key, std::vector<Value>* out) {
  metrics::OpSpan span(ctx.trace(), "lookup_all");
  rdma::RpcRequest req;
  req.service = rpc_service_;
  req.op = kLookupAll;
  req.arg0 = key;
  rdma::RpcResponse resp =
      co_await ctx.Call(partitioner_.ServerFor(key), std::move(req));
  if (resp.status != static_cast<uint16_t>(StatusCode::kOk)) co_return 0;
  if (out != nullptr) {
    out->insert(out->end(), resp.payload.begin(), resp.payload.end());
  }
  co_return resp.arg0;
}

sim::Task<Status> CoarseGrainedIndex::Delete(nam::ClientContext& ctx,
                                             Key key) {
  metrics::OpSpan span(ctx.trace(), "delete");
  rdma::RpcRequest req;
  req.service = rpc_service_;
  req.op = kDelete;
  req.arg0 = key;
  rdma::RpcResponse resp =
      co_await ctx.Call(partitioner_.ServerFor(key), std::move(req));
  const auto code = static_cast<StatusCode>(resp.status);
  if (code == StatusCode::kOk) co_return Status::OK();
  if (code == StatusCode::kUnavailable || code == StatusCode::kTimedOut) {
    co_return Status::FromCode(code, "delete rpc");
  }
  co_return Status::NotFound();
}

sim::Task<void> CoarseGrainedIndex::MultiGet(nam::ClientContext& ctx,
                                             std::span<const btree::Key> keys,
                                             LookupResult* results) {
  metrics::OpSpan span(ctx.trace(), "multiget");
  // Group the keys by home server, preserving their order inside a group,
  // then ship one kBatch lookup frame per server.
  const uint32_t servers = cluster_.num_memory_servers();
  std::vector<std::vector<size_t>> by_server(servers);
  for (size_t i = 0; i < keys.size(); ++i) {
    results[i] = LookupResult{};
    by_server[partitioner_.ServerFor(keys[i])].push_back(i);
  }

  for (uint32_t s = 0; s < servers; ++s) {
    const std::vector<size_t>& group = by_server[s];
    if (group.empty()) continue;
    rdma::RpcRequest req;
    req.service = rpc_service_;
    req.op = kBatch;
    req.payload.reserve(group.size() * 3);
    for (size_t idx : group) {
      req.payload.push_back(kLookup);
      req.payload.push_back(keys[idx]);
      req.payload.push_back(0);
    }
    rdma::RpcResponse resp = co_await ctx.Call(s, std::move(req));
    if (resp.status != static_cast<uint16_t>(StatusCode::kOk)) {
      // Transport failure: the whole group shares the frame's fate.
      const auto code = static_cast<StatusCode>(resp.status);
      for (size_t idx : group) {
        results[idx].status = Status::FromCode(code, "multiget rpc");
      }
      continue;
    }
    for (size_t g = 0; g < group.size(); ++g) {
      if (g * 2 + 1 >= resp.payload.size()) break;  // short frame: keep zeros
      const auto code = static_cast<StatusCode>(resp.payload[g * 2]);
      // A miss is a clean OK/not-found, not an error.
      const bool clean =
          code == StatusCode::kOk || code == StatusCode::kNotFound;
      results[group[g]] = LookupResult{
          code == StatusCode::kOk, resp.payload[g * 2 + 1],
          clean ? Status::OK() : Status::FromCode(code, "multiget lookup")};
    }
  }
}

sim::Task<uint64_t> CoarseGrainedIndex::GarbageCollect(
    nam::ClientContext& ctx) {
  // Epoch GC runs on each memory server (paper §3.2); triggering it costs
  // one RPC per server.
  uint64_t reclaimed = 0;
  for (uint32_t s = 0; s < cluster_.num_memory_servers(); ++s) {
    rdma::RpcRequest req;
    req.service = rpc_service_;
    req.op = kGc;
    rdma::RpcResponse resp = co_await ctx.Call(s, std::move(req));
    if (resp.status != static_cast<uint16_t>(StatusCode::kOk)) break;
    reclaimed += resp.arg0;
  }
  co_return reclaimed;
}

}  // namespace namtree::index
