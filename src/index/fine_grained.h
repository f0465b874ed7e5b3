#ifndef NAMTREE_INDEX_FINE_GRAINED_H_
#define NAMTREE_INDEX_FINE_GRAINED_H_

#include <vector>

#include "index/index.h"
#include "index/leaf_level.h"
#include "index/node_cache.h"
#include "index/remote_ops.h"
#include "index/traversal.h"
#include "nam/cluster.h"
#include "rdma/remote_ptr.h"

namespace namtree::index {

/// Design 2 (paper §4): fine-grained distribution + one-sided access.
///
/// One global B-link tree whose nodes (inner and leaf) are scattered
/// round-robin over all memory servers and connected by remote pointers.
/// Compute servers traverse and modify the tree themselves using only
/// one-sided verbs: READ for traversal, CAS to acquire node locks, WRITE +
/// FETCH_AND_ADD to install modifications and release, FETCH_AND_ADD on the
/// region cursor for RDMA_ALLOC. Head nodes on the leaf level prefetch
/// ranges (§4.3); epoch GC and head rebuilds run from a compute server.
///
/// The descent/lock/retry protocol itself lives in TraversalEngine
/// (docs/traversal.md); this design is the policy triple {global tree,
/// round-robin allocation, catalog slot on server 0} + inner-image cache.
class FineGrainedIndex : public DistributedIndex {
 public:
  FineGrainedIndex(nam::Cluster& cluster, IndexConfig config);

  Status BulkLoad(std::span<const btree::KV> sorted) override;

  sim::Task<LookupResult> Lookup(nam::ClientContext& ctx,
                                 btree::Key key) override;
  sim::Task<uint64_t> Scan(nam::ClientContext& ctx, btree::Key lo,
                           btree::Key hi, std::vector<btree::KV>* out,
                           Status* status = nullptr) override;
  sim::Task<Status> Insert(nam::ClientContext& ctx, btree::Key key,
                           btree::Value value) override;
  sim::Task<Status> Update(nam::ClientContext& ctx, btree::Key key,
                           btree::Value value) override;
  sim::Task<uint64_t> LookupAll(nam::ClientContext& ctx, btree::Key key,
                                std::vector<btree::Value>* out) override;
  sim::Task<Status> Delete(nam::ClientContext& ctx, btree::Key key) override;
  sim::Task<uint64_t> GarbageCollect(nam::ClientContext& ctx) override;

  /// Sorts the keys, groups consecutive ones by locally predicted leaf
  /// (PredictLeaf over the inner-image cache), and serves each group from
  /// one chain walk (LeafLevel::SearchChainMulti); unpredictable keys fall
  /// back to single lookups.
  sim::Task<void> MultiGet(nam::ClientContext& ctx,
                           std::span<const btree::Key> keys,
                           LookupResult* results) override;

  std::string name() const override { return "fine-grained"; }
  uint32_t page_size() const override { return config_.page_size; }

  rdma::RemotePtr root() const { return engine_.root(tree_); }
  uint8_t root_level() const { return engine_.root_level(tree_); }
  rdma::RemotePtr first_leaf() const { return first_leaf_; }

  /// Rebuilds head nodes (run by the epoch maintenance thread alongside
  /// GarbageCollect; exposed separately for tests/benches).
  sim::Task<Status> RebuildHeads(nam::ClientContext& ctx);

  /// Re-reads the root pointer from the catalog slot on server 0 with an
  /// RDMA READ — how a freshly connected compute server bootstraps (§4.2:
  /// the root pointer lives in the database's catalog service). Also
  /// refreshes the cached root level from the page header.
  sim::Task<Status> BootstrapFromCatalog(nam::ClientContext& ctx);

  /// The client's inner-node cache (Appendix A.4), or nullptr when caching
  /// is disabled. Created lazily per client id.
  NodeCache* CacheFor(uint32_t client_id) {
    return engine_.CacheFor(client_id);
  }

  /// Aggregate cache statistics over all clients.
  using CacheStats = TraversalEngine::CacheStats;
  CacheStats GetCacheStats() const { return engine_.GetCacheStats(); }

  /// The page images every client's cache shares.
  const ImagePool& image_pool() const { return engine_.image_pool(); }

 private:
  nam::Cluster& cluster_;
  IndexConfig config_;
  uint32_t catalog_slot_;
  TraversalEngine engine_;
  uint32_t tree_;
  rdma::RemotePtr first_leaf_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_FINE_GRAINED_H_
