#include "index/hybrid.h"

#include <algorithm>

namespace namtree::index {

using btree::Key;
using btree::KV;
using btree::Value;

HybridIndex::HybridIndex(nam::Cluster& cluster, IndexConfig config)
    : cluster_(cluster),
      config_(config),
      partitioner_(PartitionKind::kRange, cluster.num_memory_servers()),
      rpc_service_(cluster.AllocateRpcService()),
      engine_(TraversalEngine::Options{
          config.page_size,
          config.client_cache_pages > 0
              ? TraversalEngine::CacheMode::kLeafRoutes
              : TraversalEngine::CacheMode::kNone,
          config.client_cache_pages, config.client_cache_ttl}) {}

Status HybridIndex::BulkLoad(std::span<const KV> sorted) {
  if (config_.partition == PartitionKind::kHash) {
    return Status::Unsupported(
        "hybrid upper levels require range partitioning (the leaf chain is "
        "globally sorted)");
  }

  // Build the global fine-grained leaf level first.
  LeafLevel::BuildResult leaves;
  Status status =
      LeafLevel::Build(cluster_.fabric(), sorted, config_, &leaves);
  if (!status.ok()) return status;
  first_leaf_ = leaves.first;

  // Partition the *leaves* by entry weight and align the routing
  // boundaries with the chosen leaf fences so no partition starts in the
  // middle of a leaf's range.
  const uint32_t servers = cluster_.num_memory_servers();
  std::vector<double> weights = config_.partition_weights;
  if (weights.size() != servers) {
    weights.assign(servers, 1.0 / servers);
  }
  double total = 0;
  for (double w : weights) total += w;

  const size_t num_leaves = leaves.leaf_refs.size();
  std::vector<size_t> first_leaf_of(servers, num_leaves);
  std::vector<Key> boundaries;
  double cumulative = 0;
  size_t begin = 0;
  for (uint32_t s = 0; s < servers; ++s) {
    first_leaf_of[s] = begin;
    cumulative += weights[s] / total;
    size_t end = (s + 1 == servers)
                     ? num_leaves
                     : std::min<size_t>(
                           num_leaves,
                           static_cast<size_t>(cumulative *
                                               static_cast<double>(num_leaves)));
    if (end <= begin && begin < num_leaves) end = begin + 1;  // non-empty
    if (s + 1 < servers) {
      boundaries.push_back(end < num_leaves ? leaves.leaf_refs[end].low
                                            : btree::kInfinityKey);
    }
    begin = end;
  }
  partitioner_.SetBoundaries(std::move(boundaries));

  // Build each server's upper levels over its slice of leaf children.
  trees_.clear();
  for (uint32_t s = 0; s < servers; ++s) {
    nam::MemoryServer& server = cluster_.memory_server(s);
    trees_.push_back(std::make_unique<ServerTree>(server, config_.page_size));
    const size_t lo = first_leaf_of[s];
    const size_t hi = (s + 1 == servers) ? num_leaves : first_leaf_of[s + 1];
    std::span<const ServerTree::ChildRef> slice(leaves.leaf_refs.data() + lo,
                                                hi - lo);
    if (slice.empty()) {
      // Give empty partitions a single sentinel child: the last leaf of the
      // previous partition, so chain chases still find every key.
      slice = std::span<const ServerTree::ChildRef>(
          leaves.leaf_refs.data() + (lo == 0 ? 0 : lo - 1), 1);
    }
    status = trees_[s]->BuildOverChildren(slice, config_.leaf_fill_percent);
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

sim::Task<> HybridIndex::Handle(nam::MemoryServer& server,
                                rdma::IncomingRpc rpc) {
  co_await sim::Delay(cluster_.simulator(), server.RequestOverhead());
  ServerTree& tree = *trees_[server.server_id()];
  rdma::RpcResponse resp;

  switch (rpc.request.op) {
    case kFindLeaf: {
      resp.arg0 = co_await tree.FindLeafChild(rpc.request.arg0);
      resp.status = static_cast<uint16_t>(StatusCode::kOk);
      break;
    }
    case kInstallSep: {
      const Status status = co_await tree.InstallChildSeparator(
          rpc.request.arg0, rpc.request.arg1);
      resp.status = static_cast<uint16_t>(status.code());
      break;
    }
    default:
      resp.status = static_cast<uint16_t>(StatusCode::kUnsupported);
      break;
  }

  cluster_.fabric().Respond(server.server_id(), rpc, std::move(resp));
}

sim::Task<DescentResult> HybridIndex::ResolveLeaf(nam::ClientContext& ctx,
                                                  Key key) {
  rdma::RpcRequest req;
  req.service = rpc_service_;
  req.op = kFindLeaf;
  req.arg0 = key;
  rdma::RpcResponse resp =
      co_await ctx.Call(partitioner_.ServerFor(key), std::move(req));
  const auto code = static_cast<StatusCode>(resp.status);
  if (code != StatusCode::kOk) {
    co_return DescentResult{Status::FromCode(code, "find-leaf rpc"),
                            rdma::RemotePtr::Null(), {}};
  }
  co_return DescentResult{Status::OK(), rdma::RemotePtr(resp.arg0), {}};
}

sim::Task<LookupResult> HybridIndex::Lookup(nam::ClientContext& ctx,
                                            Key key) {
  metrics::OpSpan span(ctx.trace(), "lookup");
  const DescentResult fl = co_await engine_.ResolveLeaf(ctx, *this, key);
  if (!fl.ok()) co_return LookupResult{false, 0, fl.status};
  RemoteOps ops(ctx);
  co_return co_await LeafLevel::SearchChain(ops, fl.leaf, key, nullptr,
                                            fl.fence);
}

sim::Task<void> HybridIndex::MultiGet(nam::ClientContext& ctx,
                                      std::span<const Key> keys,
                                      LookupResult* results) {
  metrics::OpSpan span(ctx.trace(), "multiget");
  RemoteOps ops(ctx);
  // Sort, then group consecutive keys sharing a *cached* route (Peek — no
  // find-leaf RPC, no cache-stat skew): each group is one chain walk from
  // that route. Keys without a fresh cached route go through Lookup, which
  // resolves and seeds the route cache as usual. Stale routes only point
  // too far left in the global chain; the chase recovers.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    return keys[a] < keys[b];
  });
  const SimTime now = ctx.fabric().simulator().now();
  size_t i = 0;
  while (i < order.size()) {
    const rdma::RemotePtr route =
        engine_.PredictRoute(ctx.client_id(), keys[order[i]], now).leaf;
    size_t j = i + 1;
    if (!route.is_null()) {
      while (j < order.size() &&
             engine_.PredictRoute(ctx.client_id(), keys[order[j]], now)
                     .leaf == route) {
        j++;
      }
    }
    if (route.is_null() || j == i + 1) {
      results[order[i]] = co_await Lookup(ctx, keys[order[i]]);
      i = j;
      continue;
    }
    std::vector<Key> group(j - i);
    for (size_t k = i; k < j; ++k) group[k - i] = keys[order[k]];
    std::vector<LookupResult> group_results(group.size());
    // The group's largest key carries the promise: keys ascend, so if any
    // grouped route is stale, that one is. Dropping it splits the group on
    // the next call, and the dropped key re-resolves through Lookup.
    const FenceCheck fence =
        engine_.PredictRoute(ctx.client_id(), group.back(), now).fence;
    // namtree-lint: status-ok(per-key statuses land in group_results)
    (void)co_await LeafLevel::SearchChainMulti(ops, route, group,
                                               group_results.data(), fence);
    for (size_t k = i; k < j; ++k) {
      results[order[k]] = group_results[k - i];
    }
    i = j;
  }
}

sim::Task<uint64_t> HybridIndex::Scan(nam::ClientContext& ctx, Key lo, Key hi,
                                      std::vector<KV>* out, Status* status) {
  metrics::OpSpan span(ctx.trace(), "scan");
  const DescentResult fl = co_await engine_.ResolveLeaf(ctx, *this, lo);
  if (!fl.ok()) {
    if (status != nullptr) *status = fl.status;
    co_return 0;
  }
  RemoteOps ops(ctx);
  // The leaf chain is global, so one traversal covers the whole range even
  // across partition boundaries (§5.2).
  co_return co_await LeafLevel::ScanChain(ops, fl.leaf, lo, hi, out, status,
                                          fl.fence);
}

sim::Task<Status> HybridIndex::Insert(nam::ClientContext& ctx, Key key,
                                      Value value) {
  metrics::OpSpan span(ctx.trace(), "insert");
  const DescentResult fl = co_await engine_.ResolveLeaf(ctx, *this, key);
  if (!fl.ok()) co_return fl.status;
  RemoteOps ops(ctx);
  LeafLevel::SplitInfo split;
  const Status status =
      co_await LeafLevel::InsertAt(ops, fl.leaf, key, value, &split,
                                   /*alloc_server=*/-1, fl.fence);
  if (!status.ok()) co_return status;
  if (split.split) {
    // This client just learned where keys at/above the separator live;
    // seed its route cache before announcing the split.
    engine_.SeedRoute(ctx, key,
                      key >= split.separator ? split.right : fl.leaf);
    // Announce the new leaf to the memory server owning the separator's
    // range (§5.2): it installs the key into its upper levels itself.
    rdma::RpcRequest req;
    req.service = rpc_service_;
    req.op = kInstallSep;
    req.arg0 = split.separator;
    req.arg1 = split.right.raw();
    const rdma::RpcResponse resp = co_await ctx.Call(
        partitioner_.ServerFor(split.separator), std::move(req));
    const auto code = static_cast<StatusCode>(resp.status);
    if (code != StatusCode::kOk) {
      // The inserted entry is live and reachable through the leaf chain;
      // only the routing shortcut is missing until a retry installs it.
      co_return Status::FromCode(code, "install-separator rpc");
    }
  }
  co_return Status::OK();
}

sim::Task<Status> HybridIndex::Update(nam::ClientContext& ctx, Key key,
                                      Value value) {
  metrics::OpSpan span(ctx.trace(), "update");
  const DescentResult fl = co_await engine_.ResolveLeaf(ctx, *this, key);
  if (!fl.ok()) co_return fl.status;
  RemoteOps ops(ctx);
  co_return co_await LeafLevel::UpdateAt(ops, fl.leaf, key, value, fl.fence);
}

sim::Task<uint64_t> HybridIndex::LookupAll(nam::ClientContext& ctx, Key key,
                                           std::vector<Value>* out) {
  metrics::OpSpan span(ctx.trace(), "lookup_all");
  const DescentResult fl = co_await engine_.ResolveLeaf(ctx, *this, key);
  if (!fl.ok()) co_return 0;
  RemoteOps ops(ctx);
  co_return co_await LeafLevel::CollectAt(ops, fl.leaf, key, out, fl.fence);
}

sim::Task<Status> HybridIndex::Delete(nam::ClientContext& ctx, Key key) {
  metrics::OpSpan span(ctx.trace(), "delete");
  const DescentResult fl = co_await engine_.ResolveLeaf(ctx, *this, key);
  if (!fl.ok()) co_return fl.status;
  RemoteOps ops(ctx);
  co_return co_await LeafLevel::DeleteAt(ops, fl.leaf, key, fl.fence);
}

sim::Task<uint64_t> HybridIndex::GarbageCollect(nam::ClientContext& ctx) {
  // Global leaf GC from the compute server (one-sided; §5.2 notes it needs
  // no synchronization with the servers' local upper-level maintenance).
  RemoteOps ops(ctx);
  uint64_t reclaimed = co_await LeafLevel::CompactChain(ops, first_leaf_);
  if (config_.gc_merge_fill_percent > 0) {
    // Page merges/unlinks are counted separately from entry reclaims.
    (void)co_await LeafLevel::RebalanceChain(ops, first_leaf_,
                                             config_.gc_merge_fill_percent);
  }
  (void)co_await LeafLevel::RebuildHeadNodes(ops, first_leaf_,
                                             config_.head_node_interval);
  co_return reclaimed;
}

}  // namespace namtree::index
