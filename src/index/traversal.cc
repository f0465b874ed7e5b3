#include "index/traversal.h"

#include <cassert>
#include <cstring>

namespace namtree::index {

using btree::Key;
using btree::kInfinityKey;
using btree::PageView;

namespace {

DescentResult Crashed() {
  return DescentResult{Status::Unavailable("client crashed"),
                       rdma::RemotePtr::Null(), {}};
}

}  // namespace

uint32_t TraversalEngine::AddTree(int32_t alloc_server,
                                  rdma::RemotePtr catalog_ptr) {
  Tree tree;
  tree.alloc_server = alloc_server;
  tree.catalog_ptr = catalog_ptr;
  trees_.push_back(tree);
  return static_cast<uint32_t>(trees_.size() - 1);
}

void TraversalEngine::SetRoot(uint32_t tree, rdma::RemotePtr root,
                              uint8_t root_level) {
  trees_[tree].root = root;
  trees_[tree].root_level = root_level;
}

NodeCache* TraversalEngine::CacheFor(uint32_t client_id) {
  if (opts_.cache_mode == CacheMode::kNone || opts_.cache_pages == 0) {
    return nullptr;
  }
  if (client_id >= caches_.size()) caches_.resize(client_id + 1);
  std::unique_ptr<NodeCache>& cache = caches_[client_id];
  if (cache == nullptr) {
    // Route entries are one 8-byte leaf pointer, not a page image; they
    // stay in the cache's slots.
    cache = opts_.cache_mode == CacheMode::kLeafRoutes
                ? std::make_unique<NodeCache>(8, opts_.cache_pages,
                                              opts_.cache_ttl)
                : std::make_unique<NodeCache>(pool_, opts_.cache_pages,
                                              opts_.cache_ttl);
  }
  return cache.get();
}

TraversalEngine::SpecState& TraversalEngine::SpecFor(
    nam::ClientContext& ctx) {
  // The engine is the context's only user of descent_scratch.
  if (ctx.descent_scratch == nullptr) {
    ctx.descent_scratch = std::make_unique<SpecState>();
  }
  return static_cast<SpecState&>(*ctx.descent_scratch);
}

TraversalEngine::CacheStats TraversalEngine::GetCacheStats() const {
  CacheStats stats;
  for (const auto& cache : caches_) {
    if (cache == nullptr) continue;
    stats.hits += cache->hits();
    stats.misses += cache->misses();
    stats.expirations += cache->expirations();
    stats.fence_invalidations += cache->invalidations();
  }
  return stats;
}

sim::Task<AllocResult> TraversalEngine::AllocFor(RemoteOps& ops,
                                                 const Tree& tree) {
  if (tree.alloc_server >= 0) {
    co_return co_await ops.AllocPage(
        static_cast<uint32_t>(tree.alloc_server));
  }
  co_return co_await ops.AllocPageRoundRobin();
}

void TraversalEngine::SeedPublishedImage(NodeCache* cache,
                                         rdma::RemotePtr ptr, uint8_t* buf,
                                         SimTime now) {
  // The local image still carries the locked word this client stamped;
  // patch it to the post-release version (unlock adds 2) so the cached
  // copy matches what the next remote read would observe.
  uint64_t word;
  std::memcpy(&word, buf + btree::kVersionOffset, 8);
  const uint64_t unlocked = btree::VersionOf(word) + 2;
  std::memcpy(buf + btree::kVersionOffset, &unlocked, 8);
  cache->Put(ptr.raw(), buf, now);
}

sim::Task<void> TraversalEngine::SpeculatePath(RemoteOps& ops, uint32_t tree,
                                               Key key, NodeCache& cache,
                                               DescentPrefetch* prefetch,
                                               SpecState& spec) {
  const SimTime now = ops.fabric().simulator().now();
  const uint32_t page = opts_.page_size;
  rdma::RemotePtr ptr = trees_[tree].root;
  // Hop budget: a healthy path is root_level hops and staleness adds a few
  // chases; a cyclic stale-fence walk trips the budget and abandons
  // speculation entirely (the plain loop then runs untouched).
  const size_t max_hops =
      static_cast<size_t>(trees_[tree].root_level) * 2 + 8;
  spec.cache_mutations = cache.mutations();
  // The walk records its hops straight into `spec`; they only count once
  // `attempted` is set below, so an abandoned walk leaves no prediction.
  // Local prediction: no awaits, so Peek pointers stay valid throughout.
  // A TTL-expired image still routes the prediction (stale = too far
  // left, recoverable) while scheduling its refresh in the batch. Each
  // cached hop records where its image sent the key, so DescendToLeaf
  // can replay the hop instead of searching the image again.
  // namtree-lint: bounded-loop(speculative prediction: hop budget max_hops)
  while (spec.hops.size() < max_hops) {
    if (ptr.is_null()) co_return;  // garbage route: abandon speculation
    bool expired = false;
    uint32_t slot = NodeCache::kNil;
    const uint8_t* img = cache.Peek(ptr.raw(), now, &expired, &slot);
    if (img == nullptr) {
      // Frontier: the pointer is known but its image is not. Batch the
      // page itself; prediction cannot see below it.
      spec.AddHop(ptr.raw(), true);
      break;
    }
    PageView v(const_cast<uint8_t*>(img), page);
    if (v.level() == 0) {
      // A leaf image under an inner-path pointer (stale root metadata):
      // treat as frontier and let validation sort it out.
      spec.AddHop(ptr.raw(), true);
      break;
    }
    spec.AddHop(ptr.raw(), expired);
    SpecHop& hop = spec.hops.back();
    hop.slot = slot;
    if (v.NeedsChase(key)) {
      hop.route = SpecHop::Route::kChase;
      hop.next = v.right_sibling();
      ptr = rdma::RemotePtr(hop.next);
      continue;
    }
    const uint32_t i = v.InnerChildIndex(key);
    hop.next = v.inner_children()[i];
    hop.fence = v.InnerChildFence(i);
    const rdma::RemotePtr child(hop.next);
    if (v.level() == 1) {
      if (child.is_null()) co_return;  // hybrid sentinel / garbage entry
      hop.route = SpecHop::Route::kLeaf;
      spec.predicted_leaf = child;
      spec.complete = true;
      break;
    }
    hop.route = SpecHop::Route::kChild;
    ptr = child;
  }
  if (!spec.complete && spec.hops.size() >= max_hops) co_return;  // cycle

  size_t fresh_count = 0;
  for (const SpecHop& h : spec.hops) {
    if (h.fresh) fresh_count++;
  }
  const bool want_leaf =
      spec.complete && prefetch != nullptr && prefetch->leaf_buf != nullptr;
  spec.attempted = spec.complete || fresh_count > 0;
  if (fresh_count == 0 && !want_leaf) co_return;  // pure warm-cache path

  // One doorbell: every missing/expired predicted page plus the leaf. The
  // arena only grows, so a warm client neither allocates nor zero-fills.
  const size_t arena_bytes = fresh_count * static_cast<size_t>(page);
  if (spec.arena.size() < arena_bytes) spec.arena.resize(arena_bytes);
  spec.reads.clear();
  size_t slot = 0;
  for (const SpecHop& h : spec.hops) {
    if (!h.fresh) continue;
    spec.reads.push_back(rdma::Fabric::ChainOp::Read(
        rdma::RemotePtr(h.raw), spec.arena.data() + slot * page, page));
    slot++;
  }
  if (want_leaf) {
    spec.reads.push_back(rdma::Fabric::ChainOp::Read(spec.predicted_leaf,
                                                     prefetch->leaf_buf,
                                                     page));
    spec.leaf_in_batch = true;
  }
  if (!(co_await ops.ReadPagesBatch(spec.reads)).ok()) co_return;

  // Accept only usable slots: live target server, unlocked image. A
  // locked or dropped slot simply keeps no image — validation falls back
  // to a real read there, which fails over under replication.
  slot = 0;
  for (SpecHop& h : spec.hops) {
    if (!h.fresh) continue;
    uint8_t* img = spec.arena.data() + slot * page;
    slot++;
    if (!ops.fabric().ServerAlive(rdma::RemotePtr(h.raw).server_id())) {
      continue;
    }
    uint64_t word;
    std::memcpy(&word, img + btree::kVersionOffset, 8);
    if (btree::IsLocked(word)) continue;
    h.image = img;
  }
}

DescentResult TraversalEngine::PredictLeaf(uint32_t client_id,
                                           uint32_t tree, Key key,
                                           SimTime now) const {
  const DescentResult none{Status::OK(), rdma::RemotePtr::Null(), {}};
  if (opts_.cache_mode != CacheMode::kInnerImages) return none;
  if (trees_[tree].root_level == 0) {
    return DescentResult{Status::OK(), trees_[tree].root, {}};
  }
  if (client_id >= caches_.size() || caches_[client_id] == nullptr) {
    return none;
  }
  NodeCache& cache = *caches_[client_id];
  rdma::RemotePtr ptr = trees_[tree].root;
  const size_t max_hops =
      static_cast<size_t>(trees_[tree].root_level) * 2 + 8;
  // namtree-lint: bounded-loop(local cache walk: hop budget max_hops)
  for (size_t hop = 0; hop < max_hops; ++hop) {
    if (ptr.is_null()) return none;
    bool expired = false;
    const uint8_t* img = cache.Peek(ptr.raw(), now, &expired);
    if (img == nullptr) return none;
    PageView v(const_cast<uint8_t*>(img), opts_.page_size);
    if (v.level() == 0) return none;
    if (v.NeedsChase(key)) {
      ptr = rdma::RemotePtr(v.right_sibling());
      continue;
    }
    const uint32_t i = v.InnerChildIndex(key);
    const rdma::RemotePtr child(v.inner_children()[i]);
    if (v.level() == 1) {
      return DescentResult{Status::OK(), child,
                           FenceCheck(&cache, ptr.raw(), v.InnerChildFence(i),
                                      /*route=*/false)};
    }
    ptr = child;
  }
  return none;
}

sim::Task<DescentResult> TraversalEngine::DescendToLeaf(
    RemoteOps& ops, uint32_t tree, Key key, DescentPrefetch* prefetch) {
  if (prefetch != nullptr) prefetch->leaf_image_valid = false;
  rdma::RemotePtr ptr = trees_[tree].root;
  if (trees_[tree].root_level == 0) {
    co_return DescentResult{Status::OK(), ptr, {}};  // single-leaf tree
  }
  uint8_t* buf = ops.ctx().page_a();
  NodeCache* cache = CacheFor(ops.ctx().client_id());

  // Speculative path prefetch (Options::speculative_descent): predict the
  // whole path from cached images, batch the missing/expired prefix in one
  // RTT, then let the loop below validate top-down — it consumes batch
  // images in place of remote reads and degrades to the plain
  // level-by-level descent from the first hop speculation cannot serve.
  SpecState* spec = nullptr;
  if (opts_.speculative_descent &&
      opts_.cache_mode == CacheMode::kInnerImages && cache != nullptr) {
    spec = &SpecFor(ops.ctx());
    spec->Reset();
    co_await SpeculatePath(ops, tree, key, *cache, prefetch, *spec);
    if (!ops.alive()) co_return Crashed();
    if (!spec->attempted) spec = nullptr;
  }
  // A cached hop the prediction walked is replayed, not searched again,
  // while the cache is unmutated since the prediction: each key then maps
  // to the slot and image it had, so the recorded decision is the one the
  // image would give. Without a TTL nothing expires in between either.
  size_t replay_at = 0;

  rdma::RemotePtr leaf;
  bool fallback_read = false;  // a predicted hop needed a real read
  // The promise of the cached image that routed the descent to `ptr`.
  FenceCheck fence;
  // namtree-lint: bounded-loop(blink-descent: every step moves down a level or right along ascending fences; read failures exit)
  for (;;) {
    if (spec != nullptr && replay_at < spec->hops.size()) {
      const SpecHop& hop = spec->hops[replay_at++];
      if (!hop.fresh && hop.raw == ptr.raw() && opts_.cache_ttl == 0 &&
          cache->mutations() == spec->cache_mutations) {
        // The cache hit Get would have scored, then the hop's decision.
        cache->Touch(hop.slot);
        fence = FenceCheck();
        if (hop.route == SpecHop::Route::kChase) {
          ptr = rdma::RemotePtr(hop.next);
          continue;
        }
        fence = FenceCheck(cache, ptr.raw(), hop.fence, /*route=*/false);
        if (hop.route == SpecHop::Route::kLeaf) {
          leaf = rdma::RemotePtr(hop.next);
          break;
        }
        ptr = rdma::RemotePtr(hop.next);
        continue;
      }
    }
    // A.4 caching: inner-node images may come from the client cache; a
    // stale image can only route us too far left, which the B-link chase
    // at the next level (or leaf chain) corrects. The cache is consulted
    // *before* the speculative batch — the exact order of the plain loop,
    // so hit/miss/expiration accounting and LRU motion are bit-identical
    // with speculation on (pinned by the Peek regression test).
    const uint8_t* image = nullptr;
    bool fresh_from_batch = false;
    if (cache != nullptr) {
      image = cache->Get(ptr.raw(), ops.fabric().simulator().now());
    }
    const bool from_cache = image != nullptr;
    if (image == nullptr && spec != nullptr) {
      image = spec->FreshImage(ptr.raw());
      fresh_from_batch = image != nullptr;
    }
    if (image == nullptr) {
      const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
      if (!read.ok()) co_return Crashed();
      image = buf;
      if (spec != nullptr &&
          (spec->complete || spec->Predicted(ptr.raw()))) {
        // Below an incomplete prediction's frontier real reads are the
        // plan, not a mispredict; on a predicted hop (or anywhere under a
        // complete prediction) they mean speculation failed here.
        fallback_read = true;
      }
      if (cache != nullptr && PageView(buf, ops.page_size()).level() >= 1) {
        cache->Put(ptr.raw(), buf, ops.fabric().simulator().now());
      }
    } else if (fresh_from_batch && cache != nullptr &&
               PageView(const_cast<uint8_t*>(image), ops.page_size())
                       .level() >= 1) {
      // The batched read substitutes for the remote read the plain loop
      // would have issued at this hop; seed the cache the same way.
      cache->Put(ptr.raw(), image, ops.fabric().simulator().now());
    }
    PageView view(const_cast<uint8_t*>(image), ops.page_size());
    // Only a remote image is evidence against the promise: a cached child
    // may be older than its cached parent.
    if (from_cache) {
      fence = FenceCheck();
    } else {
      fence.Check(view);
    }
    if (view.level() == 0) {
      // Stale root metadata can land us on a leaf; hand it to the caller.
      leaf = ptr;
      break;
    }
    if (view.NeedsChase(key)) {
      ptr = rdma::RemotePtr(view.right_sibling());
      continue;
    }
    const uint32_t i = view.InnerChildIndex(key);
    if (from_cache) {
      fence = FenceCheck(cache, ptr.raw(), view.InnerChildFence(i),
                         /*route=*/false);
    }
    const rdma::RemotePtr child(view.inner_children()[i]);
    if (view.level() == 1) {
      leaf = child;
      break;
    }
    ptr = child;
  }

  if (spec != nullptr) {
    bool leaf_usable = false;
    if (spec->leaf_in_batch && leaf == spec->predicted_leaf &&
        ops.fabric().ServerAlive(leaf.server_id())) {
      uint64_t word;
      std::memcpy(&word, prefetch->leaf_buf + btree::kVersionOffset, 8);
      leaf_usable = !btree::IsLocked(word);
    }
    const bool mispredicted = fallback_read ||
                              (spec->complete && leaf != spec->predicted_leaf) ||
                              (spec->leaf_in_batch && !leaf_usable);
    if (mispredicted) {
      ops.ctx().mispredicts.Inc();
    } else if (spec->complete) {
      ops.ctx().speculative_hits.Inc();
    }
    if (leaf_usable) prefetch->leaf_image_valid = true;
  }
  co_return DescentResult{Status::OK(), leaf, fence};
}

sim::Task<bool> TraversalEngine::TryGrowRoot(RemoteOps& ops, uint32_t tree,
                                             uint8_t new_level, Key sep,
                                             rdma::RemotePtr left,
                                             rdma::RemotePtr right) {
  const AllocResult alloc = co_await AllocFor(ops, trees_[tree]);
  if (!alloc.ok()) co_return true;  // give up silently: tree valid
  const rdma::RemotePtr new_root = alloc.ptr;
  std::vector<uint8_t> image(ops.page_size());
  PageView view(image.data(), ops.page_size());
  view.InitInner(new_level, kInfinityKey, 0);
  view.inner_keys()[0] = sep;
  view.inner_children()[0] = left.raw();
  view.inner_children()[1] = right.raw();
  view.header().count = 1;
  // Fresh-page publication (primary + live backups under replication); a
  // dropped root-image write must not be published: give up, tree valid.
  const Status published = co_await ops.WriteFreshPage(new_root, image.data());
  if (!published.ok()) co_return true;
  // Publish through the catalog. The check-and-update happens atomically in
  // virtual time (no awaits in between), mirroring a catalog-service CAS.
  if (trees_[tree].root != left) co_return false;  // somebody else grew it
  trees_[tree].root = new_root;
  trees_[tree].root_level = new_level;
  if (!trees_[tree].catalog_ptr.is_null()) {
    // A dropped catalog write (dead client) is sound: the in-memory root
    // already moved, and bootstrapping clients re-read the slot anyway.
    // namtree-lint: status-ok(catalog publication is best-effort)
    (void)co_await ops.WriteWord(trees_[tree].catalog_ptr, new_root.raw());
  }
  co_return true;
}

sim::Task<Status> TraversalEngine::InstallSeparator(RemoteOps& ops,
                                                    uint32_t tree,
                                                    uint8_t level, Key sep,
                                                    rdma::RemotePtr left,
                                                    rdma::RemotePtr right) {
  uint8_t* buf = ops.ctx().page_a();
  // Bounded: every pass makes B-link progress or propagates a failure
  // status. namtree-lint: bounded-loop(blink-restart)
  for (;;) {
    if (trees_[tree].root_level < level) {
      if (co_await TryGrowRoot(ops, tree, level, sep, left, right)) {
        co_return ops.alive() ? Status::OK()
                              : Status::Unavailable("client crashed");
      }
      continue;
    }
    // Descend to the target level for `sep`.
    rdma::RemotePtr ptr = trees_[tree].root;
    bool restart = false;
    NodeCache* cache = CacheFor(ops.ctx().client_id());
    // The promise of the cached image that routed the descent to `ptr`,
    // checked as in DescendToLeaf.
    FenceCheck fence;
    // namtree-lint: bounded-loop(blink-descent)
    for (;;) {
      // A.4 caching on the install descent: hops *above* the target level
      // may come from the client cache (a stale image only routes too far
      // left, and the B-link chase corrects that). The target node itself
      // always takes a fresh read — its version word seeds the lock CAS.
      if (cache != nullptr) {
        const uint8_t* image =
            cache->Get(ptr.raw(), ops.fabric().simulator().now());
        if (image != nullptr) {
          PageView cview(const_cast<uint8_t*>(image), ops.page_size());
          if (cview.level() > level) {
            fence = FenceCheck();
            if (cview.NeedsChase(sep)) {
              ptr = rdma::RemotePtr(cview.right_sibling());
            } else {
              const uint32_t i = cview.InnerChildIndex(sep);
              fence = FenceCheck(cache, ptr.raw(), cview.InnerChildFence(i),
                                 /*route=*/false);
              ptr = rdma::RemotePtr(cview.inner_children()[i]);
            }
            continue;
          }
        }
      }
      const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
      if (!read.ok()) co_return read.status;
      PageView view(buf, ops.page_size());
      fence.Check(view);
      if (view.level() < level) {
        // Stale root below the target level: re-check the catalog state.
        restart = true;
        break;
      }
      if (view.level() > level) {
        if (cache != nullptr) {
          cache->Put(ptr.raw(), buf, ops.fabric().simulator().now());
        }
        if (view.NeedsChase(sep)) {
          ptr = rdma::RemotePtr(view.right_sibling());
          continue;
        }
        ptr = rdma::RemotePtr(view.InnerChildFor(sep));
        continue;
      }
      // At the target level: chase, then lock.
      if (view.NeedsChase(sep)) {
        ptr = rdma::RemotePtr(view.right_sibling());
        continue;
      }
      const Status lock = co_await ops.TryLockPage(ptr, read.version);
      if (!lock.ok()) {
        if (!lock.IsAborted()) co_return lock;
        ops.ctx().restarts.Inc();
        continue;  // lost the CAS race: re-read this node
      }
      ops.StampLocked(buf, read.version);

      // Re-validate the range under the lock (version pinned by the CAS).
      if (view.InnerInsert(sep, right.raw())) {
        const Status wu = co_await ops.WriteUnlockPage(ptr, buf);
        if (wu.IsAborted()) {
          // The locked acting primary died mid-publication (R>1): the lock
          // evaporated with it; retry against the promoted replica.
          ops.ctx().restarts.Inc();
          continue;
        }
        if (!wu.ok()) co_return wu;
        if (cache != nullptr) {
          // Seed the cache with the image we just published: the next
          // descent routes through this node with zero remote reads.
          SeedPublishedImage(cache, ptr, buf,
                             ops.fabric().simulator().now());
        }
        co_return Status::OK();
      }
      // Full: split this inner node and recurse with the promoted key.
      const AllocResult alloc = co_await AllocFor(ops, trees_[tree]);
      if (!alloc.ok()) {
        if (!ops.alive()) co_return Status::Unavailable("client crashed");
        (void)co_await ops.UnlockPage(ptr);
        if (alloc.status.IsOutOfMemory()) {
          co_return Status::OK();  // OOM; separator uninstalled (B-link safe)
        }
        co_return alloc.status;  // dead allocation pool: surface it
      }
      const rdma::RemotePtr new_right = alloc.ptr;
      std::vector<uint8_t> rimage(ops.page_size());
      PageView rview(rimage.data(), ops.page_size());
      const Key promoted = view.SplitInnerInto(rview, new_right.raw());
      PageView target = sep < promoted ? view : rview;
      const bool ok = target.InnerInsert(sep, right.raw());
      assert(ok);
      (void)ok;
      // One chained {right WRITE, left WRITE, unlock} publication; a crash
      // drops the unexecuted tail, orphans the lock on `ptr` (lease-steal
      // reclaims it) and leaks the unpublished right node — both sound.
      const Status wu =
          co_await ops.WriteUnlockPage(ptr, buf, new_right, rimage.data());
      if (wu.IsAborted()) {
        // Locked primary died mid-split-publication: the promoted replica
        // still shows the pre-split image and the lock evaporated. The
        // allocated right node leaks (unreachable) — retry the pass.
        ops.ctx().restarts.Inc();
        continue;
      }
      if (!wu.ok()) co_return wu;
      if (cache != nullptr) {
        // Seed both halves of the split with their freshly published
        // images (left patched to the post-release version word).
        const SimTime now = ops.fabric().simulator().now();
        SeedPublishedImage(cache, ptr, buf, now);
        cache->Put(new_right.raw(), rimage.data(), now);
      }
      co_return co_await InstallSeparator(
          ops, tree, static_cast<uint8_t>(level + 1), promoted, ptr,
          new_right);
    }
    if (restart) continue;
  }
}

sim::Task<Status> TraversalEngine::BootstrapFromCatalog(RemoteOps& ops,
                                                        uint32_t tree) {
  if (trees_[tree].catalog_ptr.is_null()) {
    co_return Status::Unsupported("tree has no catalog slot");
  }
  uint64_t raw = 0;
  const Status word = co_await ops.ReadWord(trees_[tree].catalog_ptr, &raw);
  if (!word.ok()) co_return word;
  if (!ops.fabric().ServerAlive(trees_[tree].catalog_ptr.server_id())) {
    // Catalog slots live in the (unreplicated) region header.
    co_return Status::Unavailable("catalog host dead");
  }
  const rdma::RemotePtr root(raw);
  if (root.is_null()) co_return Status::NotFound("catalog slot empty");
  // Learn the root's level from its page header.
  const Status read = co_await ops.ReadPage(root, ops.ctx().page_a());
  if (!read.ok()) co_return read;
  PageView view(ops.ctx().page_a(), ops.page_size());
  trees_[tree].root = root;
  trees_[tree].root_level = view.level();
  co_return Status::OK();
}

sim::Task<DescentResult> TraversalEngine::ResolveLeaf(nam::ClientContext& ctx,
                                                      LeafResolver& resolver,
                                                      Key key) {
  NodeCache* cache = CacheFor(ctx.client_id());
  if (cache != nullptr) {
    const uint8_t* image =
        cache->Get(key, ctx.fabric().simulator().now());
    if (image != nullptr) {
      uint64_t raw;
      std::memcpy(&raw, image, 8);
      co_return DescentResult{Status::OK(), rdma::RemotePtr(raw),
                              FenceCheck(cache, key, 0, /*route=*/true)};
    }
  }
  DescentResult result = co_await resolver.ResolveLeaf(ctx, key);
  if (result.ok() && cache != nullptr) {
    const uint64_t raw = result.leaf.raw();
    cache->Put(key, reinterpret_cast<const uint8_t*>(&raw),
               ctx.fabric().simulator().now());
  }
  co_return result;
}

DescentResult TraversalEngine::PredictRoute(uint32_t client_id, Key key,
                                            SimTime now) const {
  DescentResult result{Status::OK(), rdma::RemotePtr::Null(), {}};
  if (opts_.cache_mode != CacheMode::kLeafRoutes ||
      client_id >= caches_.size() || caches_[client_id] == nullptr) {
    return result;
  }
  NodeCache* cache = caches_[client_id].get();
  bool expired = false;
  const uint8_t* image = cache->Peek(key, now, &expired);
  if (image == nullptr || expired) return result;
  uint64_t raw;
  std::memcpy(&raw, image, 8);
  result.leaf = rdma::RemotePtr(raw);
  result.fence = FenceCheck(cache, key, 0, /*route=*/true);
  return result;
}

void TraversalEngine::SeedRoute(nam::ClientContext& ctx, Key key,
                                rdma::RemotePtr leaf) {
  NodeCache* cache = CacheFor(ctx.client_id());
  if (cache == nullptr) return;
  const uint64_t raw = leaf.raw();
  cache->Put(key, reinterpret_cast<const uint8_t*>(&raw),
             ctx.fabric().simulator().now());
}

}  // namespace namtree::index
