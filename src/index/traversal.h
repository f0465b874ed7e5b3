#ifndef NAMTREE_INDEX_TRAVERSAL_H_
#define NAMTREE_INDEX_TRAVERSAL_H_

#include <memory>
#include <vector>

#include "btree/page.h"
#include "common/status.h"
#include "index/fence_check.h"
#include "index/node_cache.h"
#include "index/remote_ops.h"
#include "nam/cluster.h"
#include "rdma/remote_ptr.h"
#include "sim/task.h"

namespace namtree::index {

/// Outcome of resolving a starting leaf for a key. OK carries a candidate
/// leaf pointer (leaf-chain chases are still the caller's job, via the
/// LeafLevel routines) and the cache's promise about it, which the caller
/// hands to the LeafLevel routine that reads the leaf; any other status
/// ended the resolution (kUnavailable for a dead caller, kTimedOut once an
/// RPC deadline is exhausted).
struct DescentResult {
  Status status;
  rdma::RemotePtr leaf;
  FenceCheck fence;

  bool ok() const { return status.ok(); }
};

/// The shared one-sided B-link traversal engine: one implementation of the
/// descend -> chase -> validate -> lock -> retry state machine that the
/// paper's one-sided designs (FG, CG-one-sided) and the hybrid design's
/// leaf resolution are built on. A design is a *policy triple* over this
/// engine instead of its own copy of the protocol:
///
///   root policy  - which tree to start in and where its root lives. The
///                  engine owns a table of trees: FG registers one global
///                  tree (round-robin allocation, catalog slot on server
///                  0); CG-one-sided registers one tree per partition
///                  (fixed-server allocation, catalog slot on server s);
///                  hybrid registers none and resolves leaves through a
///                  LeafResolver RPC hook instead.
///   cache policy - CacheMode: no cache, per-client inner-node image cache
///                  (Appendix A.4; descents and separator installs consult
///                  and seed it, splits seed both halves), or a per-client
///                  leaf-route cache for RPC designs (key -> leaf pointer,
///                  seeded from resolver results).
///   lock policy  - the RemoteOps facade passed into every call: OLC
///                  version validation, CAS lock acquire with capped
///                  backoff and lease-based steal from dead holders, and
///                  doorbell-chained {page WRITE, unlock} /
///                  {sibling, page, unlock} publication.
///
/// Every fence decision goes through PageView::NeedsChase, which encodes
/// the inclusive-inner / exclusive-leaf fence contract in one place.
///
/// Crash faults surface as Status::Unavailable (descents return a null
/// leaf); the tree is valid at every step — B-link: a split is reachable
/// via the left sibling pointer before its separator is installed, and an
/// orphaned lock is lease-stolen.
class TraversalEngine {
 public:
  enum class CacheMode {
    kNone,
    /// Cache full inner-node images keyed by remote pointer (one-sided
    /// descents). Stale images only route too far left; the chase recovers
    /// and the fence check drops the image (FenceCheck).
    kInnerImages,
    /// Cache resolved leaf pointers keyed by the exact lookup key (RPC
    /// designs). Stale routes only point too far left in the leaf chain
    /// (leaf coverage moves right under splits and drain-merges, never
    /// left), so the chain chase recovers and the fence check drops the
    /// route.
    kLeafRoutes,
  };

  struct Options {
    uint32_t page_size = 0;
    CacheMode cache_mode = CacheMode::kNone;
    size_t cache_pages = 0;
    SimTime cache_ttl = 0;
    /// One-RTT speculative descent (kInnerImages only; default off —
    /// bit-identical to the level-by-level loop). Before awaiting
    /// anything, DescendToLeaf walks the cached inner images locally —
    /// including TTL-expired ones and the sibling-chase hops their fences
    /// imply — to predict the full root→leaf path, issues a single
    /// doorbell-batched READ covering every predicted page that is missing
    /// or expired (plus the leaf itself when the caller passes a
    /// DescentPrefetch), and then validates top-down, falling back to the
    /// level-by-level loop from the first mispredicted hop. Staleness
    /// degrades exactly as in the plain loop: a stale image routes too far
    /// left and the chase recovers — speculation can waste batched reads,
    /// never correctness.
    bool speculative_descent = false;
  };

  /// Optional leaf handoff for speculative descents: when the predictor
  /// resolves a full path, the predicted leaf's image rides the same
  /// batch into `leaf_buf` (caller-owned, page-sized). On return,
  /// `leaf_image_valid` says the descent confirmed the predicted leaf and
  /// the image is consistent (unlocked, live server) — the caller may hand
  /// it to LeafLevel::SearchChain as its first-iteration preread and skip
  /// one more round trip.
  struct DescentPrefetch {
    uint8_t* leaf_buf = nullptr;
    bool leaf_image_valid = false;
  };

  /// Aggregate per-client cache statistics.
  struct CacheStats {
    // namtree-lint: metric-ok(aggregated copy of NodeCache's local counts, returned by value to callers; not a live counter)
    uint64_t hits = 0;
    // namtree-lint: metric-ok(see hits)
    uint64_t misses = 0;
    uint64_t expirations = 0;  ///< TTL expiries (opt-in TTL only)
    /// Entries a broken fence promise dropped (FenceCheck).
    uint64_t fence_invalidations = 0;
  };

  /// Root-policy hook for RPC designs: resolves a starting leaf for `key`
  /// without a one-sided descent (hybrid: the find-leaf RPC to the
  /// partition owner).
  class LeafResolver {
   public:
    virtual ~LeafResolver() = default;
    virtual sim::Task<DescentResult> ResolveLeaf(nam::ClientContext& ctx,
                                                 btree::Key key) = 0;
  };

  explicit TraversalEngine(Options opts)
      : opts_(opts), pool_(opts.page_size) {}

  // ---- Root policy: the tree table ----------------------------------------

  /// Registers a one-sided tree. `alloc_server` < 0 scatters split
  /// allocations round-robin (fine-grained placement); >= 0 pins them to
  /// one server (partitioned placement). `catalog_ptr` is where the root
  /// pointer is published for remote bootstrap (null = unpublished).
  /// Returns the tree id.
  uint32_t AddTree(int32_t alloc_server, rdma::RemotePtr catalog_ptr);

  /// Sets a tree's root after a bulk load (the catalog slot itself is
  /// written by the loader at setup time).
  void SetRoot(uint32_t tree, rdma::RemotePtr root, uint8_t root_level);

  rdma::RemotePtr root(uint32_t tree) const { return trees_[tree].root; }
  uint8_t root_level(uint32_t tree) const { return trees_[tree].root_level; }

  // ---- One-sided descent ---------------------------------------------------

  /// Descends tree `tree`'s inner levels one-sided (paper Listing 2) to a
  /// leaf candidate for `key`, consulting/seeding the inner-image cache and
  /// fence-checking every page reached through a cached image. Unavailable
  /// means this client died mid-descent (or a read failed). With
  /// Options::speculative_descent the descent is prefixed by the
  /// predict→batch→validate pass (see Options); `prefetch`, when non-null,
  /// additionally requests the predicted leaf's image in the same batch.
  sim::Task<DescentResult> DescendToLeaf(RemoteOps& ops, uint32_t tree,
                                         btree::Key key,
                                         DescentPrefetch* prefetch = nullptr);

  /// Locally predicts the leaf for `key` from this client's cached inner
  /// images alone — Peek only: no verbs, no LRU touch, no stat skew.
  /// The leaf is null when the cache cannot resolve a complete path;
  /// otherwise `fence` carries the promise of the cached level-1 image that
  /// named it. Stale predictions are safe for grouping (MultiGet): they can
  /// only name a leaf too far left, the chain chase recovers, and the
  /// fence check drops the stale image.
  DescentResult PredictLeaf(uint32_t client_id, uint32_t tree,
                            btree::Key key, SimTime now) const;

  /// Installs separator `sep` / right child `right` at inner `level` of
  /// tree `tree` after a split of `left`, growing the root through the
  /// catalog when the tree is too short. Unavailable means this client
  /// died mid-install; the tree stays valid via the sibling chain.
  sim::Task<Status> InstallSeparator(RemoteOps& ops, uint32_t tree,
                                     uint8_t level, btree::Key sep,
                                     rdma::RemotePtr left,
                                     rdma::RemotePtr right);

  /// Re-reads tree `tree`'s root pointer from its catalog slot with an
  /// RDMA READ — how a freshly connected compute server bootstraps (§4.2)
  /// — and refreshes the root level from the page header.
  sim::Task<Status> BootstrapFromCatalog(RemoteOps& ops, uint32_t tree);

  // ---- RPC leaf resolution (hybrid root policy) ----------------------------

  /// Resolves a starting leaf for `key` through `resolver`, consulting and
  /// seeding the per-client leaf-route cache (CacheMode::kLeafRoutes); a
  /// cached route comes back with its FenceCheck armed.
  sim::Task<DescentResult> ResolveLeaf(nam::ClientContext& ctx,
                                       LeafResolver& resolver,
                                       btree::Key key);

  /// The route-cache counterpart of PredictLeaf: this client's unexpired
  /// cached route for `key` (null leaf when there is none) with its
  /// promise armed — Peek only, like PredictLeaf.
  DescentResult PredictRoute(uint32_t client_id, btree::Key key,
                             SimTime now) const;

  /// Seeds the route cache after a leaf split this client performed: keys
  /// at or above the separator now live in `right`.
  void SeedRoute(nam::ClientContext& ctx, btree::Key key,
                 rdma::RemotePtr leaf);

  // ---- Cache policy --------------------------------------------------------

  /// The client's cache (inner images or leaf routes, per CacheMode), or
  /// nullptr when caching is disabled. Created lazily per client id.
  NodeCache* CacheFor(uint32_t client_id);

  CacheStats GetCacheStats() const;

  /// The page images every client cache shares (kInnerImages).
  const ImagePool& image_pool() const { return pool_; }

 private:
  struct Tree {
    rdma::RemotePtr root;
    uint8_t root_level = 0;
    int32_t alloc_server = -1;
    rdma::RemotePtr catalog_ptr;
  };

  /// RDMA_ALLOC following the tree's placement policy. Surfaces
  /// kOutOfMemory (stripe exhausted) and kUnavailable (dead client / no
  /// live server) through the AllocResult status.
  sim::Task<AllocResult> AllocFor(RemoteOps& ops, const Tree& tree);

  /// Publishes a grown root through the tree's catalog slot. True = done
  /// (or gave up soundly); false = lost the race, caller re-examines.
  sim::Task<bool> TryGrowRoot(RemoteOps& ops, uint32_t tree,
                              uint8_t new_level, btree::Key sep,
                              rdma::RemotePtr left, rdma::RemotePtr right);

  /// Seeds `cache` with a just-published image, patched from the locked
  /// word to the post-release version so later descents validate cleanly.
  void SeedPublishedImage(NodeCache* cache, rdma::RemotePtr ptr,
                          uint8_t* buf, SimTime now);

  /// One page the local prediction walked through.
  struct SpecHop {
    /// How the prediction left a cached hop's image.
    enum class Route : uint8_t {
      kChase,  ///< to the right sibling `next`
      kChild,  ///< down to inner child `next`, promising `fence`
      kLeaf,   ///< to leaf `next` (a level-1 image), promising `fence`
    };
    uint64_t raw = 0;
    bool fresh = false;  ///< missing or TTL-expired: rides the batch
    /// The batch image (a page-granular slot of SpecState::arena) once
    /// accepted: its target was alive and the image arrived unlocked.
    uint8_t* image = nullptr;
    /// A cached hop's routing decision, replayed by DescendToLeaf while
    /// the cache is unmutated: the image's slot and where it sent `key`.
    uint32_t slot = NodeCache::kNil;
    Route route = Route::kChase;
    uint64_t next = 0;
    btree::Key fence = 0;
  };

  /// The predicted path of one speculative descent and the images its
  /// batch fetched. A path is at most 2 * root_level + 8 hops, so it is
  /// searched linearly. Each client context keeps one (SpecFor), reused by
  /// every descent of that context: a context runs one descent at a time,
  /// and each pipeline lane of a client has its own context. A warm
  /// descent thus allocates nothing: `hops`, `arena` and `reads` keep
  /// their capacity.
  struct SpecState final : nam::ContextScratch {
    std::vector<SpecHop> hops;
    std::vector<uint8_t> arena;
    std::vector<rdma::Fabric::ChainOp> reads;
    bool attempted = false;       ///< a prediction (with or w/o batch) ran
    bool complete = false;        ///< prediction reached a leaf pointer
    bool leaf_in_batch = false;   ///< predicted leaf rode the batch
    rdma::RemotePtr predicted_leaf;
    /// NodeCache::mutations() when the prediction ran.
    uint64_t cache_mutations = 0;

    void Reset() {
      hops.clear();
      attempted = complete = leaf_in_batch = false;
      predicted_leaf = rdma::RemotePtr::Null();
    }
    void AddHop(uint64_t raw, bool fresh) { hops.push_back({raw, fresh}); }
    /// The first accepted batch image of `raw`, or nullptr.
    uint8_t* FreshImage(uint64_t raw) const {
      for (const SpecHop& h : hops) {
        if (h.raw == raw && h.image != nullptr) return h.image;
      }
      return nullptr;
    }
    /// Whether the prediction walked through page `raw`.
    bool Predicted(uint64_t raw) const {
      for (const SpecHop& h : hops) {
        if (h.raw == raw) return true;
      }
      return false;
    }
  };

  /// `ctx`'s speculative-descent state, made on its first descent.
  static SpecState& SpecFor(nam::ClientContext& ctx);

  /// The predict→batch half of a speculative descent: walks cached images
  /// locally (Peek — no cache mutation), then issues one doorbell-batched
  /// READ for the missing/expired prefix plus (optionally) the leaf.
  sim::Task<void> SpeculatePath(RemoteOps& ops, uint32_t tree,
                                btree::Key key, NodeCache& cache,
                                DescentPrefetch* prefetch, SpecState& spec);

  Options opts_;
  std::vector<Tree> trees_;
  /// Every client cache's page images (kInnerImages), stored once per
  /// (page, content). Declared before caches_, so it outlives them.
  ImagePool pool_;
  /// Indexed by client id; null until the client first uses its cache.
  std::vector<std::unique_ptr<NodeCache>> caches_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_TRAVERSAL_H_
