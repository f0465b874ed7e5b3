#include "index/fine_grained.h"

#include <algorithm>

#include "btree/page.h"
#include "index/tree_build.h"
#include "rdma/memory_region.h"

namespace namtree::index {

using btree::Key;
using btree::KV;
using btree::Value;

FineGrainedIndex::FineGrainedIndex(nam::Cluster& cluster, IndexConfig config)
    : cluster_(cluster),
      config_(config),
      catalog_slot_(cluster.AllocateCatalogSlot()),
      engine_(TraversalEngine::Options{
          config.page_size,
          config.client_cache_pages > 0
              ? TraversalEngine::CacheMode::kInnerImages
              : TraversalEngine::CacheMode::kNone,
          config.client_cache_pages, config.client_cache_ttl,
          config.speculative_descent}),
      tree_(engine_.AddTree(
          /*alloc_server=*/-1,
          rdma::RemotePtr::Make(
              0, rdma::MemoryRegion::CatalogSlotOffset(catalog_slot_)))) {}

Status FineGrainedIndex::BulkLoad(std::span<const KV> sorted) {
  LeafLevel::BuildResult leaves;
  Status status = LeafLevel::Build(cluster_.fabric(), sorted, config_,
                                   &leaves);
  if (!status.ok()) return status;
  first_leaf_ = leaves.first;

  rdma::RemotePtr root;
  uint8_t root_level = 0;
  status = BuildUpperLevels(cluster_.fabric(), std::move(leaves.leaf_refs),
                            config_.page_size, config_.leaf_fill_percent,
                            /*fixed_server=*/-1, &root, &root_level);
  if (!status.ok()) return status;
  engine_.SetRoot(tree_, root, root_level);

  // Publish the root in this index's catalog slot (server 0) for remote
  // bootstrap.
  cluster_.fabric().region(0)->WriteU64(
      rdma::MemoryRegion::CatalogSlotOffset(catalog_slot_), root.raw());
  // Seed backup replicas from the bulk-loaded primaries (no-op at R=1).
  cluster_.fabric().SyncReplicasFromPrimaries();
  return Status::OK();
}

sim::Task<LookupResult> FineGrainedIndex::Lookup(nam::ClientContext& ctx,
                                                 Key key) {
  metrics::OpSpan span(ctx.trace(), "lookup");
  RemoteOps ops(ctx);
  // Under speculative descent the predicted leaf's image rides the descent
  // batch into page_b (free on this read-only path) and, when confirmed,
  // feeds SearchChain's first iteration — the one-RTT lookup.
  TraversalEngine::DescentPrefetch prefetch;
  prefetch.leaf_buf = ctx.page_b();
  const DescentResult d =
      co_await engine_.DescendToLeaf(ops, tree_, key, &prefetch);
  if (!d.ok()) co_return LookupResult{false, 0, d.status};
  co_return co_await LeafLevel::SearchChain(
      ops, d.leaf, key, prefetch.leaf_image_valid ? ctx.page_b() : nullptr,
      d.fence);
}

sim::Task<void> FineGrainedIndex::MultiGet(nam::ClientContext& ctx,
                                           std::span<const Key> keys,
                                           LookupResult* results) {
  metrics::OpSpan span(ctx.trace(), "multiget");
  RemoteOps ops(ctx);
  // Sort (stably, by key) so chain walks move strictly right, then group
  // consecutive keys whose locally predicted leaf matches: each group costs
  // one descent plus one READ per visited leaf instead of one full lookup
  // per key. Keys the cache cannot place fall back to single lookups.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&keys](size_t a, size_t b) {
    return keys[a] < keys[b];
  });
  const SimTime now = ctx.fabric().simulator().now();
  size_t i = 0;
  while (i < order.size()) {
    const DescentResult predicted =
        engine_.PredictLeaf(ctx.client_id(), tree_, keys[order[i]], now);
    size_t j = i + 1;
    if (!predicted.leaf.is_null()) {
      while (j < order.size() &&
             engine_.PredictLeaf(ctx.client_id(), tree_, keys[order[j]],
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
    // A stale prediction can only name a leaf too far left; the chain
    // chase inside SearchChainMulti recovers and its fence check drops the
    // stale image, exactly as for Lookup.
    // namtree-lint: status-ok(per-key statuses land in group_results)
    (void)co_await LeafLevel::SearchChainMulti(
        ops, predicted.leaf, group, group_results.data(), predicted.fence);
    for (size_t k = i; k < j; ++k) {
      results[order[k]] = group_results[k - i];
    }
    i = j;
  }
}

sim::Task<uint64_t> FineGrainedIndex::Scan(nam::ClientContext& ctx, Key lo,
                                           Key hi, std::vector<KV>* out,
                                           Status* status) {
  metrics::OpSpan span(ctx.trace(), "scan");
  RemoteOps ops(ctx);
  const DescentResult d = co_await engine_.DescendToLeaf(ops, tree_, lo);
  if (!d.ok()) {
    if (status != nullptr) *status = d.status;
    co_return 0;
  }
  co_return co_await LeafLevel::ScanChain(ops, d.leaf, lo, hi, out, status,
                                          d.fence);
}

sim::Task<Status> FineGrainedIndex::Insert(nam::ClientContext& ctx, Key key,
                                           Value value) {
  metrics::OpSpan span(ctx.trace(), "insert");
  RemoteOps ops(ctx);
  const DescentResult d = co_await engine_.DescendToLeaf(ops, tree_, key);
  if (!d.ok()) co_return d.status;
  LeafLevel::SplitInfo split;
  const Status status = co_await LeafLevel::InsertAt(
      ops, d.leaf, key, value, &split, /*alloc_server=*/-1, d.fence);
  if (!status.ok()) co_return status;
  if (split.split) {
    // The left page of the split is the page InsertAt actually modified;
    // it may differ from `d.leaf` after chain chases, but the separator
    // install only needs (sep, right).
    co_return co_await engine_.InstallSeparator(ops, tree_, 1,
                                                split.separator, d.leaf,
                                                split.right);
  }
  co_return Status::OK();
}

sim::Task<Status> FineGrainedIndex::Update(nam::ClientContext& ctx, Key key,
                                           Value value) {
  metrics::OpSpan span(ctx.trace(), "update");
  RemoteOps ops(ctx);
  const DescentResult d = co_await engine_.DescendToLeaf(ops, tree_, key);
  if (!d.ok()) co_return d.status;
  co_return co_await LeafLevel::UpdateAt(ops, d.leaf, key, value, d.fence);
}

sim::Task<uint64_t> FineGrainedIndex::LookupAll(nam::ClientContext& ctx,
                                                Key key,
                                                std::vector<Value>* out) {
  metrics::OpSpan span(ctx.trace(), "lookup_all");
  RemoteOps ops(ctx);
  const DescentResult d = co_await engine_.DescendToLeaf(ops, tree_, key);
  if (!d.ok()) co_return 0;
  co_return co_await LeafLevel::CollectAt(ops, d.leaf, key, out, d.fence);
}

sim::Task<Status> FineGrainedIndex::Delete(nam::ClientContext& ctx, Key key) {
  metrics::OpSpan span(ctx.trace(), "delete");
  RemoteOps ops(ctx);
  const DescentResult d = co_await engine_.DescendToLeaf(ops, tree_, key);
  if (!d.ok()) co_return d.status;
  co_return co_await LeafLevel::DeleteAt(ops, d.leaf, key, d.fence);
}

sim::Task<uint64_t> FineGrainedIndex::GarbageCollect(nam::ClientContext& ctx) {
  // The global epoch GC runs from a compute server using the same
  // one-sided lock protocol as writers (§4.2): leaf compaction first, then
  // head-node maintenance.
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

sim::Task<Status> FineGrainedIndex::BootstrapFromCatalog(
    nam::ClientContext& ctx) {
  RemoteOps ops(ctx);
  co_return co_await engine_.BootstrapFromCatalog(ops, tree_);
}

sim::Task<Status> FineGrainedIndex::RebuildHeads(nam::ClientContext& ctx) {
  RemoteOps ops(ctx);
  co_return co_await LeafLevel::RebuildHeadNodes(ops, first_leaf_,
                                                 config_.head_node_interval);
}

}  // namespace namtree::index
