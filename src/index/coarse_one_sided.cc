#include "index/coarse_one_sided.h"

#include <algorithm>

#include "btree/page.h"
#include "index/tree_build.h"
#include "rdma/memory_region.h"

namespace namtree::index {

using btree::Key;
using btree::KV;
using btree::Value;

CoarseOneSidedIndex::CoarseOneSidedIndex(nam::Cluster& cluster,
                                         IndexConfig config)
    : cluster_(cluster),
      config_(config),
      partitioner_(config.partition, cluster.num_memory_servers()),
      catalog_slot_(cluster.AllocateCatalogSlot()),
      engine_(TraversalEngine::Options{
          config.page_size,
          config.client_cache_pages > 0
              ? TraversalEngine::CacheMode::kInnerImages
              : TraversalEngine::CacheMode::kNone,
          config.client_cache_pages, config.client_cache_ttl,
          config.speculative_descent}) {
  // One engine tree per partition: splits allocate on the partition's
  // server and the root is published in that server's catalog slot.
  for (uint32_t s = 0; s < cluster.num_memory_servers(); ++s) {
    engine_.AddTree(
        static_cast<int32_t>(s),
        rdma::RemotePtr::Make(
            s, rdma::MemoryRegion::CatalogSlotOffset(catalog_slot_)));
  }
}

Status CoarseOneSidedIndex::BulkLoad(std::span<const KV> sorted) {
  partitioner_.FitBoundaries(sorted, config_.partition_weights);
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

  first_leaves_.assign(servers, rdma::RemotePtr());
  for (uint32_t s = 0; s < servers; ++s) {
    LeafLevel::BuildResult leaves;
    Status status = LeafLevel::Build(cluster_.fabric(), slices[s], config_,
                                     &leaves, static_cast<int32_t>(s));
    if (!status.ok()) return status;
    first_leaves_[s] = leaves.first;
    rdma::RemotePtr root;
    uint8_t root_level = 0;
    status = BuildUpperLevels(cluster_.fabric(),
                              std::move(leaves.leaf_refs), config_.page_size,
                              config_.leaf_fill_percent,
                              static_cast<int32_t>(s), &root, &root_level);
    if (!status.ok()) return status;
    engine_.SetRoot(s, root, root_level);
    // Publish each partition root in this index's catalog slot.
    cluster_.fabric().region(s)->WriteU64(
        rdma::MemoryRegion::CatalogSlotOffset(catalog_slot_), root.raw());
  }
  // Seed backup replicas from the bulk-loaded primaries (no-op at R=1).
  cluster_.fabric().SyncReplicasFromPrimaries();
  return Status::OK();
}

sim::Task<LookupResult> CoarseOneSidedIndex::Lookup(nam::ClientContext& ctx,
                                                    Key key) {
  metrics::OpSpan span(ctx.trace(), "lookup");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  // As in FG: the predicted leaf rides the speculative-descent batch into
  // page_b and feeds SearchChain's first iteration when confirmed.
  TraversalEngine::DescentPrefetch prefetch;
  prefetch.leaf_buf = ctx.page_b();
  const DescentResult d =
      co_await engine_.DescendToLeaf(ops, server, key, &prefetch);
  if (!d.ok()) co_return LookupResult{false, 0, d.status};
  co_return co_await LeafLevel::SearchChain(
      ops, d.leaf, key, prefetch.leaf_image_valid ? ctx.page_b() : nullptr,
      d.fence);
}

sim::Task<void> CoarseOneSidedIndex::MultiGet(nam::ClientContext& ctx,
                                              std::span<const Key> keys,
                                              LookupResult* results) {
  metrics::OpSpan span(ctx.trace(), "multiget");
  RemoteOps ops(ctx);
  // Sort, then group consecutive keys by locally predicted leaf within
  // their partition tree; each group is one chain walk. Prediction never
  // crosses partitions: ServerFor pins the tree, and PredictLeaf only
  // groups keys that resolve to the same leaf of the same tree.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    return keys[a] < keys[b];
  });
  const SimTime now = ctx.fabric().simulator().now();
  size_t i = 0;
  while (i < order.size()) {
    const uint32_t server = partitioner_.ServerFor(keys[order[i]]);
    const DescentResult predicted =
        engine_.PredictLeaf(ctx.client_id(), server, keys[order[i]], now);
    size_t j = i + 1;
    if (!predicted.leaf.is_null()) {
      while (j < order.size() &&
             partitioner_.ServerFor(keys[order[j]]) == server &&
             engine_.PredictLeaf(ctx.client_id(), server, keys[order[j]],
                                 now)
                     .leaf == predicted.leaf) {
        j++;
      }
    }
    if (predicted.leaf.is_null() || j == i + 1) {
      results[order[i]] = co_await Lookup(ctx, keys[order[i]]);
      i = j;
      continue;
    }
    std::vector<Key> group(j - i);
    for (size_t k = i; k < j; ++k) group[k - i] = keys[order[k]];
    std::vector<LookupResult> group_results(group.size());
    // namtree-lint: status-ok(per-key statuses land in group_results)
    (void)co_await LeafLevel::SearchChainMulti(
        ops, predicted.leaf, group, group_results.data(), predicted.fence);
    for (size_t k = i; k < j; ++k) {
      results[order[k]] = group_results[k - i];
    }
    i = j;
  }
}

sim::Task<uint64_t> CoarseOneSidedIndex::Scan(nam::ClientContext& ctx, Key lo,
                                              Key hi, std::vector<KV>* out,
                                              Status* status) {
  metrics::OpSpan span(ctx.trace(), "scan");
  if (status != nullptr) *status = Status::OK();
  // Partition chains are per-server; visit every partition intersecting
  // the range (all of them under hash partitioning, Table 2).
  RemoteOps ops(ctx);
  uint64_t found = 0;
  std::vector<KV> merged;
  const bool hash = partitioner_.kind() == PartitionKind::kHash;
  for (uint32_t server : partitioner_.ServersFor(lo, hi)) {
    std::vector<KV>* sink = out == nullptr ? nullptr : (hash ? &merged : out);
    const DescentResult d = co_await engine_.DescendToLeaf(ops, server, lo);
    if (!d.ok()) {  // dead client: report the partial count
      if (status != nullptr) *status = d.status;
      break;
    }
    // Later partitions may still be reachable after one chain degrades, so
    // keep going for the best-effort count but report the first failure
    // (kTimedOut vs kUnavailable matters to the YCSB FailureBreakdown).
    Status chain_status;
    found += co_await LeafLevel::ScanChain(ops, d.leaf, lo, hi, sink,
                                           &chain_status, d.fence);
    if (!chain_status.ok() && status != nullptr && status->ok()) {
      *status = chain_status;
    }
  }
  if (out != nullptr && hash) {
    std::stable_sort(merged.begin(), merged.end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
    out->insert(out->end(), merged.begin(), merged.end());
  }
  co_return found;
}

sim::Task<Status> CoarseOneSidedIndex::Insert(nam::ClientContext& ctx,
                                              Key key, Value value) {
  metrics::OpSpan span(ctx.trace(), "insert");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  const DescentResult d = co_await engine_.DescendToLeaf(ops, server, key);
  if (!d.ok()) co_return d.status;
  LeafLevel::SplitInfo split;
  const Status status = co_await LeafLevel::InsertAt(
      ops, d.leaf, key, value, &split, static_cast<int32_t>(server), d.fence);
  if (!status.ok()) co_return status;
  if (split.split) {
    co_return co_await engine_.InstallSeparator(ops, server, 1,
                                                split.separator, d.leaf,
                                                split.right);
  }
  co_return Status::OK();
}

sim::Task<Status> CoarseOneSidedIndex::Update(nam::ClientContext& ctx,
                                              Key key, Value value) {
  metrics::OpSpan span(ctx.trace(), "update");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  const DescentResult d = co_await engine_.DescendToLeaf(ops, server, key);
  if (!d.ok()) co_return d.status;
  co_return co_await LeafLevel::UpdateAt(ops, d.leaf, key, value, d.fence);
}

sim::Task<uint64_t> CoarseOneSidedIndex::LookupAll(nam::ClientContext& ctx,
                                                   Key key,
                                                   std::vector<Value>* out) {
  metrics::OpSpan span(ctx.trace(), "lookup_all");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  const DescentResult d = co_await engine_.DescendToLeaf(ops, server, key);
  if (!d.ok()) co_return 0;
  co_return co_await LeafLevel::CollectAt(ops, d.leaf, key, out, d.fence);
}

sim::Task<Status> CoarseOneSidedIndex::Delete(nam::ClientContext& ctx,
                                              Key key) {
  metrics::OpSpan span(ctx.trace(), "delete");
  RemoteOps ops(ctx);
  const uint32_t server = partitioner_.ServerFor(key);
  const DescentResult d = co_await engine_.DescendToLeaf(ops, server, key);
  if (!d.ok()) co_return d.status;
  co_return co_await LeafLevel::DeleteAt(ops, d.leaf, key, d.fence);
}

sim::Task<uint64_t> CoarseOneSidedIndex::GarbageCollect(
    nam::ClientContext& ctx) {
  RemoteOps ops(ctx);
  uint64_t reclaimed = 0;
  for (uint32_t s = 0; s < cluster_.num_memory_servers(); ++s) {
    reclaimed += co_await LeafLevel::CompactChain(ops, first_leaves_[s]);
    if (config_.gc_merge_fill_percent > 0) {
      // Page merges/unlinks are counted separately from entry reclaims.
      (void)co_await LeafLevel::RebalanceChain(
          ops, first_leaves_[s], config_.gc_merge_fill_percent);
    }
    (void)co_await LeafLevel::RebuildHeadNodes(ops, first_leaves_[s],
                                               config_.head_node_interval);
  }
  co_return reclaimed;
}

}  // namespace namtree::index
