#include "index/leaf_level.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace namtree::index {

using btree::IsLocked;
using btree::Key;
using btree::KV;
using btree::kInfinityKey;
using btree::PageView;
using btree::Value;

namespace {

/// Writes `view`'s backing buffer directly into a region at setup time.
uint8_t* RegionPage(rdma::Fabric& fabric, rdma::RemotePtr ptr) {
  return fabric.region(ptr.server_id())->at(ptr.offset());
}

}  // namespace

Status LeafLevel::Build(rdma::Fabric& fabric,
                        std::span<const btree::KV> sorted,
                        const IndexConfig& config, BuildResult* out,
                        int32_t fixed_server) {
  const uint32_t page_size = config.page_size;
  const uint32_t servers = fabric.num_memory_servers();
  const uint32_t fill = std::max<uint32_t>(
      1, PageView::LeafCapacity(page_size) * config.leaf_fill_percent / 100);
  const uint32_t interval = config.head_node_interval;

  out->leaf_refs.clear();

  // Pass 1: allocate and fill the real leaves, round-robin over servers.
  std::vector<rdma::RemotePtr> leaves;
  size_t i = 0;
  uint32_t rr = 0;
  do {
    rdma::RemotePtr ptr;
    if (fixed_server >= 0) {
      ptr = fabric.region(static_cast<uint32_t>(fixed_server))
                ->AllocateLocal(page_size);
    } else {
      for (uint32_t attempt = 0; attempt < servers; ++attempt) {
        ptr = fabric.region(rr % servers)->AllocateLocal(page_size);
        rr++;
        if (!ptr.is_null()) break;
      }
    }
    if (ptr.is_null()) return Status::OutOfMemory("leaf level build");
    PageView leaf(RegionPage(fabric, ptr), page_size);
    leaf.InitLeaf(kInfinityKey, 0);
    const size_t take = std::min<size_t>(fill, sorted.size() - i);
    for (size_t j = 0; j < take; ++j) leaf.leaf_entries()[j] = sorted[i + j];
    leaf.header().count = static_cast<uint16_t>(take);
    out->leaf_refs.push_back(
        {take > 0 ? sorted[i].key : 0, ptr.raw()});
    leaves.push_back(ptr);
    i += take;
  } while (i < sorted.size());

  // Pass 2: link siblings + fences, inserting a head node after every
  // `interval`-th real leaf.
  for (size_t l = 0; l < leaves.size(); ++l) {
    PageView leaf(RegionPage(fabric, leaves[l]), page_size);
    const bool last = (l + 1 == leaves.size());
    const Key next_low = last ? kInfinityKey : out->leaf_refs[l + 1].low;
    leaf.header().high_key = next_low;
    if (last) {
      leaf.header().right_sibling = 0;
      break;
    }
    const bool head_here = interval > 0 && ((l + 1) % interval == 0);
    if (!head_here) {
      leaf.header().right_sibling = leaves[l + 1].raw();
      continue;
    }
    // Heads participate in the round-robin scatter like any other node
    // (or stay on the partition's server in fixed mode).
    rdma::RemotePtr head_ptr =
        fabric
            .region(fixed_server >= 0 ? static_cast<uint32_t>(fixed_server)
                                      : rr % servers)
            ->AllocateLocal(page_size);
    rr++;
    if (head_ptr.is_null()) {
      // Degrade gracefully: skip the head.
      leaf.header().right_sibling = leaves[l + 1].raw();
      continue;
    }
    PageView head(RegionPage(fabric, head_ptr), page_size);
    head.InitHead(leaves[l + 1].raw());
    const uint32_t n = static_cast<uint32_t>(std::min<size_t>(
        {static_cast<size_t>(interval), leaves.size() - (l + 1),
         static_cast<size_t>(head.head_capacity())}));
    for (uint32_t k = 0; k < n; ++k) {
      head.head_ptrs()[k] = leaves[l + 1 + k].raw();
    }
    head.header().count = static_cast<uint16_t>(n);
    leaf.header().right_sibling = head_ptr.raw();
  }

  out->first = leaves.front();
  return Status::OK();
}

sim::Task<LookupResult> LeafLevel::SearchChain(RemoteOps ops,
                                               rdma::RemotePtr start,
                                               Key key,
                                               const uint8_t* preread,
                                               FenceCheck fence) {
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  // namtree-lint: bounded-loop(chain-chase: every step moves right along ascending fences and stops at the first fence above key; read failures exit)
  for (;;) {
    const uint8_t* image;
    if (preread != nullptr) {
      // Speculatively prefetched image of `start`: already validated
      // unlocked by the descent, consumed exactly once.
      image = preread;
      preread = nullptr;
    } else {
      const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
      if (!read.ok()) co_return LookupResult{false, 0, read.status};
      image = buf;
    }
    PageView view(const_cast<uint8_t*>(image), ops.page_size());
    fence.Check(view);
    if (view.is_head()) {
      ptr = rdma::RemotePtr(view.right_sibling());
      if (ptr.is_null()) co_return LookupResult{false, 0, Status::OK()};
      continue;
    }
    const int32_t idx = view.LeafFindLive(key);
    if (idx >= 0) {
      co_return LookupResult{true, view.leaf_entries()[idx].value,
                             Status::OK()};
    }
    if (view.NeedsChase(key)) {
      ptr = rdma::RemotePtr(view.right_sibling());
      continue;
    }
    co_return LookupResult{false, 0, Status::OK()};
  }
}

sim::Task<Status> LeafLevel::SearchChainMulti(RemoteOps ops,
                                              rdma::RemotePtr start,
                                              std::span<const Key> keys,
                                              LookupResult* results,
                                              FenceCheck fence) {
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  size_t i = 0;
  bool have_image = false;
  // Ascending keys make the walk monotone: the cursor only ever moves
  // right, and each visited page is read once no matter how many of the
  // group's keys it answers.
  // namtree-lint: bounded-loop(chain-chase: keys ascend and every re-read step moves right along ascending fences; read failures exit)
  while (i < keys.size()) {
    if (!have_image) {
      const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
      if (!read.ok()) {
        for (; i < keys.size(); ++i) {
          results[i] = LookupResult{false, 0, read.status};
        }
        co_return read.status;
      }
      have_image = true;
    }
    PageView view(buf, ops.page_size());
    fence.Check(view);
    if (view.is_head()) {
      ptr = rdma::RemotePtr(view.right_sibling());
      if (ptr.is_null()) {  // chain ends in a trailing head: clean misses
        for (; i < keys.size(); ++i) {
          results[i] = LookupResult{false, 0, Status::OK()};
        }
        co_return Status::OK();
      }
      have_image = false;
      continue;
    }
    const Key key = keys[i];
    const int32_t idx = view.LeafFindLive(key);
    if (idx >= 0) {
      results[i] =
          LookupResult{true, view.leaf_entries()[idx].value, Status::OK()};
      i++;
      continue;
    }
    if (view.NeedsChase(key)) {
      ptr = rdma::RemotePtr(view.right_sibling());
      have_image = false;
      continue;
    }
    results[i] = LookupResult{false, 0, Status::OK()};
    i++;
  }
  co_return Status::OK();
}

sim::Task<uint64_t> LeafLevel::ScanChain(RemoteOps ops, rdma::RemotePtr start,
                                         Key lo, Key hi,
                                         std::vector<KV>* out, Status* status,
                                         FenceCheck fence) {
  // Every clean exit leaves this OK; the degraded-mode exits overwrite it
  // with the failing read's status so the caller can tell kUnavailable
  // (dead server/client) from kTimedOut (flaky-net budget exhausted).
  if (status != nullptr) *status = Status::OK();
  if (lo >= hi) co_return 0;
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  uint64_t found = 0;
  rdma::RemotePtr ptr = start;
  // Monotonic low bound: entries below the highest fence seen so far were
  // either already collected or belonged to a page we saw *after* an epoch
  // merge drained it — in both cases the absorber to the right holds them
  // and this cursor makes collection exactly-once (see RebalanceChain).
  Key cursor = lo;

  nam::ScanBatch& batch = ops.ctx().scan_batch();

  // namtree-lint: bounded-loop(chain-chase: every step moves right along ascending fences and stops at the first fence >= hi or the rightmost page; read failures exit)
  for (;;) {
    // Degraded mode returns the partial count collected so far.
    const PageReadResult step = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!step.ok()) {
      if (status != nullptr) *status = step.status;
      co_return found;
    }
    PageView view(buf, page_size);
    fence.Check(view);

    if (!view.is_head()) {
      found += view.LeafCollectLive(cursor, hi, out);
      if (!view.is_drained()) {
        cursor = std::max(cursor, std::min(view.high_key(), hi));
      }
      if (view.right_sibling() == 0) co_return found;
      if (view.high_key() >= hi) co_return found;
      ptr = rdma::RemotePtr(view.right_sibling());
      continue;
    }

    // Head node: prefetch the following leaves with one selectively
    // signaled batch (§4.3), then consume the images in place.
    const uint32_t n = view.count();
    if (n == 0) {
      ptr = rdma::RemotePtr(view.right_sibling());
      if (ptr.is_null()) co_return found;
      continue;
    }
    // Every way out of this batch releases all of its images.
    const nam::ScanBatch::Lease lease = batch.Begin(n);
    for (uint32_t k = 0; k < n; ++k) {
      batch.reads()[k] = rdma::Fabric::ChainOp::Read(
          rdma::RemotePtr(view.head_ptrs()[k]), batch.page(k), page_size,
          &batch.image(k));
    }
    const Status prefetched = co_await ops.ReadPagesBatch(batch.reads());
    if (!prefetched.ok()) {
      if (status != nullptr) *status = prefetched;
      co_return found;  // batch dropped; images unspecified
    }

    bool resumed_chain = false;
    for (uint32_t k = 0; k < n; ++k) {
      const rdma::RemotePtr target = batch.reads()[k].target;
      // Read-only view: a pinned image is the remote page itself.
      PageView leaf(const_cast<uint8_t*>(batch.image(k).data()), page_size);
      if (leaf.data() == nullptr ||
          !ops.fabric().ServerAlive(target.server_id()) ||
          IsLocked(leaf.version_word())) {
        // The image was mid-write, or its member was dropped by a dead
        // target server and holds nothing current: release it and fall
        // back to a fresh spin-read into the member's own page slot, which
        // fails over to a live replica under replication.
        ops.fabric().ReleaseImages({&batch.image(k), 1});
        const PageReadResult reread =
            co_await ops.ReadPageUnlocked(target, batch.page(k));
        if (!reread.ok()) {
          if (status != nullptr) *status = reread.status;
          co_return found;
        }
        leaf = PageView(batch.page(k), page_size);
      }
      if (leaf.is_head()) {  // stale pointer now naming a head: re-walk
        ptr = target;
        resumed_chain = true;
        break;
      }
      found += leaf.LeafCollectLive(cursor, hi, out);
      if (!leaf.is_drained()) {
        cursor = std::max(cursor, std::min(leaf.high_key(), hi));
      }
      if (leaf.right_sibling() == 0) co_return found;
      if (leaf.high_key() >= hi) co_return found;
      const uint64_t expected_next = k + 1 < n
                                         ? batch.reads()[k + 1].target.raw()
                                         : leaf.right_sibling();
      if (leaf.right_sibling() != expected_next) {
        // Outdated head (a split added a leaf): abandon the remaining
        // prefetched images and follow the chain directly — one extra
        // remote read, exactly the §4.3 fallback.
        ptr = rdma::RemotePtr(leaf.right_sibling());
        resumed_chain = true;
        break;
      }
      if (k + 1 == n) {
        ptr = rdma::RemotePtr(leaf.right_sibling());
        resumed_chain = true;
      }
    }
    if (!resumed_chain || ptr.is_null()) co_return found;
  }
}

sim::Task<Status> LeafLevel::InsertAt(RemoteOps ops, rdma::RemotePtr start,
                                      Key key, Value value,
                                      SplitInfo* split,
                                      int32_t alloc_server,
                                      FenceCheck fence) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  split->split = false;

  for (;;) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!read.ok()) co_return read.status;
    const uint64_t version = read.version;
    PageView view(buf, page_size);
    fence.Check(view);
    if (view.is_head()) {
      ptr = rdma::RemotePtr(view.right_sibling());
      if (ptr.is_null()) co_return Status::Corruption("chain ends in a head");
      continue;
    }
    if (view.NeedsChase(key)) {
      ptr = rdma::RemotePtr(view.right_sibling());
      continue;
    }
    const Status lock = co_await ops.TryLockPage(ptr, version);
    if (!lock.ok()) {
      if (!lock.IsAborted()) co_return lock;  // dead: no partial state
      ops.ctx().restarts.Inc();
      continue;  // version moved: re-read and retry
    }
    // The CAS succeeded against the version of our image, so the image is
    // the current content; stamp the locked word into it.
    ops.StampLocked(buf, version);

    if (view.LeafInsert(key, value)) {
      const Status wu = co_await ops.WriteUnlockPage(ptr, buf);
      if (wu.IsAborted()) {
        // The locked acting primary died mid-publication (R>1): the lock
        // evaporated with the server; retry against the promoted replica.
        ops.ctx().restarts.Inc();
        continue;
      }
      co_return wu;
    }

    // Split: allocate the right page round-robin (RDMA_ALLOC), then
    // publish {right page, left page, unlock} as one in-order verb chain
    // (the right page lands before the left page points at it). A crash at
    // any point here is sound: the chain's unexecuted tail drops
    // atomically, an unpublished right page is an unreachable leak, and
    // the orphaned left lock is lease-stolen (the image behind it is
    // either the old or the fully split content — verbs are atomic).
    AllocResult alloc;
    if (alloc_server >= 0) {
      alloc = co_await ops.AllocPage(static_cast<uint32_t>(alloc_server));
    } else {
      alloc = co_await ops.AllocPageRoundRobin();
    }
    if (!alloc.ok()) {
      const Status unlock = co_await ops.UnlockPage(ptr);
      if (!unlock.ok()) co_return unlock;
      if (alloc.status.IsOutOfMemory()) {
        co_return Status::OutOfMemory("leaf split");
      }
      co_return alloc.status;  // dead allocation pool: surface it
    }
    const rdma::RemotePtr right_ptr = alloc.ptr;
    uint8_t* rbuf = ops.ctx().page_b();
    PageView right(rbuf, page_size);
    const Key separator = view.SplitLeafInto(right, right_ptr.raw());
    const bool ok = key < separator ? view.LeafInsert(key, value)
                                    : right.LeafInsert(key, value);
    assert(ok);
    (void)ok;
    const Status unlock =
        co_await ops.WriteUnlockPage(ptr, buf, right_ptr, rbuf);
    if (unlock.IsAborted()) {
      // Locked primary died mid-split-publication: the promoted replica
      // still shows the pre-split image. The allocated right page leaks
      // (unreachable); retry the whole pass.
      ops.ctx().restarts.Inc();
      continue;
    }
    if (!unlock.ok()) co_return unlock;

    split->split = true;
    split->separator = separator;
    split->right = right_ptr;
    co_return Status::OK();
  }
}

sim::Task<Status> LeafLevel::EditFirstLiveAt(RemoteOps ops,
                                             rdma::RemotePtr start, Key key,
                                             std::optional<Value> value,
                                             FenceCheck fence) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  for (;;) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!read.ok()) co_return read.status;
    PageView view(buf, page_size);
    fence.Check(view);
    if (view.is_head()) {
      ptr = rdma::RemotePtr(view.right_sibling());
      if (ptr.is_null()) co_return Status::NotFound();
      continue;
    }
    if (view.LeafFindLive(key) < 0) {
      if (view.NeedsChase(key)) {
        ptr = rdma::RemotePtr(view.right_sibling());
        continue;
      }
      co_return Status::NotFound();
    }
    const Status lock = co_await ops.TryLockPage(ptr, read.version);
    if (!lock.ok()) {
      if (!lock.IsAborted()) co_return lock;
      ops.ctx().restarts.Inc();
      continue;
    }
    ops.StampLocked(buf, read.version);
    const bool edited = value ? view.LeafUpdateFirst(key, *value)
                              : view.LeafMarkDeleted(key);
    if (!edited) {
      const Status unlock = co_await ops.UnlockPage(ptr);
      if (!unlock.ok()) co_return unlock;
      co_return Status::NotFound();  // defensive; CAS pinned the version
    }
    const Status wu = co_await ops.WriteUnlockPage(ptr, buf);
    if (wu.IsAborted()) {
      ops.ctx().restarts.Inc();  // primary died mid-publication: retry promoted
      continue;
    }
    co_return wu;
  }
}

sim::Task<uint64_t> LeafLevel::CollectAt(RemoteOps ops, rdma::RemotePtr start,
                                         Key key,
                                         std::vector<Value>* out,
                                         FenceCheck fence) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = start;
  uint64_t found = 0;
  // Chasing stops at the first fence above `key`; epoch merges never
  // straddle a duplicate run, so a fence above `key` guarantees no copies
  // of the run live further right (absorbed or otherwise).
  // namtree-lint: bounded-loop(chain-chase: every step moves right along ascending fences; read failures exit)
  for (;;) {
    if (!(co_await ops.ReadPageUnlocked(ptr, buf)).ok()) co_return found;
    PageView view(buf, page_size);
    fence.Check(view);
    if (view.is_head()) {
      ptr = rdma::RemotePtr(view.right_sibling());
      if (ptr.is_null()) co_return found;
      continue;
    }
    found += view.LeafCollect(key, out);
    if (view.NeedsChase(key)) {
      ptr = rdma::RemotePtr(view.right_sibling());
      continue;
    }
    co_return found;
  }
}

sim::Task<uint64_t> LeafLevel::CompactChain(RemoteOps ops,
                                            rdma::RemotePtr first) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  rdma::RemotePtr ptr = first;
  uint64_t reclaimed = 0;
  while (!ptr.is_null()) {
    if (!(co_await ops.ReadPageUnlocked(ptr, buf)).ok()) co_return reclaimed;
    PageView view(buf, page_size);
    if (view.is_head()) {
      ptr = rdma::RemotePtr(view.right_sibling());
      continue;
    }
    bool dirty = false;
    for (uint32_t i = 0; i < view.count(); ++i) {
      if (view.LeafIsTombstoned(i)) {
        dirty = true;
        break;
      }
    }
    if (!dirty) {
      ptr = rdma::RemotePtr(view.right_sibling());
      continue;
    }
    if (!(co_await ops.LockPage(ptr, buf)).ok()) co_return reclaimed;
    PageView locked_view(buf, page_size);
    reclaimed += locked_view.LeafCompact();
    const rdma::RemotePtr next(locked_view.right_sibling());
    if (!(co_await ops.WriteUnlockPage(ptr, buf)).ok()) co_return reclaimed;
    ptr = next;
  }
  co_return reclaimed;
}

sim::Task<uint64_t> LeafLevel::RebalanceChain(RemoteOps ops,
                                              rdma::RemotePtr first,
                                              uint32_t max_fill_percent) {
  const uint32_t page_size = ops.page_size();
  uint8_t* left_buf = ops.ctx().page_a();
  uint8_t* right_buf = ops.ctx().page_b();
  std::vector<uint8_t> peek_buf(page_size);

  uint64_t changed = 0;
  rdma::RemotePtr prev;  // last live leaf whose direct sibling is `ptr`
  rdma::RemotePtr ptr = first;

  while (!ptr.is_null()) {
    // A failed protocol step aborts the pass; epoch GC retries next epoch.
    if (!(co_await ops.ReadPageUnlocked(ptr, left_buf)).ok()) {
      co_return changed;
    }
    PageView page(left_buf, page_size);

    if (page.is_head()) {
      prev = rdma::RemotePtr();  // a head intervenes: no relink across it
      ptr = rdma::RemotePtr(page.right_sibling());
      continue;
    }

    if (page.is_drained()) {
      // Unlink a drained page when its direct predecessor is a live leaf
      // we tracked (GC is single-threaded, so its sibling is stable).
      const rdma::RemotePtr next(page.right_sibling());
      if (!prev.is_null()) {
        if (!(co_await ops.LockPage(prev, right_buf)).ok()) co_return changed;
        PageView pv(right_buf, page_size);
        if (pv.right_sibling() == ptr.raw()) {
          pv.header().right_sibling = next.raw();
          if (!(co_await ops.WriteUnlockPage(prev, right_buf)).ok()) {
            co_return changed;
          }
          changed++;
        } else {
          if (!(co_await ops.UnlockPage(prev)).ok()) co_return changed;
          prev = rdma::RemotePtr();  // chain changed; re-anchor later
        }
      }
      ptr = next;
      continue;
    }

    // Candidate merge: direct live-leaf successor, combined live entries
    // within budget, no duplicate run straddling the boundary (checked
    // again under the locks in TryMerge).
    const rdma::RemotePtr next(page.right_sibling());
    bool merged = false;
    rdma::RemotePtr replacement;
    bool relinked = false;
    if (!next.is_null()) {
      if (!(co_await ops.ReadPage(next, peek_buf.data())).ok()) {
        co_return changed;
      }
      PageView peek(peek_buf.data(), page_size);
      if (peek.is_leaf() && !peek.is_drained() &&
          !btree::IsLocked(peek.version_word())) {
        const uint32_t left_live =
            page.LeafCollectLive(0, kInfinityKey, nullptr);
        const uint32_t right_live =
            peek.LeafCollectLive(0, kInfinityKey, nullptr);
        const uint32_t budget =
            PageView::LeafCapacity(page_size) * max_fill_percent / 100;
        if (left_live + right_live <= budget) {
          merged = co_await TryMerge(ops, prev, ptr, next, &replacement,
                                     &relinked, &changed);
        }
      }
    }
    if (merged) {
      // Continue at the freshly allocated absorber; `prev` is still its
      // direct predecessor iff the relink succeeded.
      if (!relinked) prev = rdma::RemotePtr();
      ptr = replacement;
    } else {
      prev = ptr;
      ptr = next;
    }
  }
  co_return changed;
}

sim::Task<bool> LeafLevel::TryMerge(RemoteOps ops, rdma::RemotePtr prev,
                                    rdma::RemotePtr left,
                                    rdma::RemotePtr right,
                                    rdma::RemotePtr* replacement,
                                    bool* relinked, uint64_t* changed) {
  const uint32_t page_size = ops.page_size();
  uint8_t* left_buf = ops.ctx().page_a();
  uint8_t* right_buf = ops.ctx().page_b();
  *relinked = false;

  // Any Unavailable below means *this* client died: no cleanup is possible
  // (our verbs are dropped); orphaned locks are reclaimed by lease-steal.
  if (!(co_await ops.LockPage(left, left_buf)).ok()) co_return false;
  PageView lv(left_buf, page_size);
  if (!lv.is_leaf() || lv.is_drained() ||
      lv.right_sibling() != right.raw()) {
    (void)co_await ops.UnlockPage(left);
    co_return false;  // the chain moved under us
  }
  if (!(co_await ops.LockPage(right, right_buf)).ok()) {
    (void)co_await ops.UnlockPage(left);
    co_return false;
  }
  PageView rv(right_buf, page_size);
  if (!rv.is_leaf() || rv.is_drained()) {
    (void)co_await ops.UnlockPage(right);
    (void)co_await ops.UnlockPage(left);
    co_return false;
  }

  lv.LeafCompact();
  rv.LeafCompact();
  const uint32_t ln = lv.count();
  const uint32_t rn = rv.count();
  const bool straddle = ln > 0 && rn > 0 &&
                        lv.leaf_entries()[ln - 1].key ==
                            rv.leaf_entries()[0].key;
  if (ln + rn > lv.leaf_capacity() || straddle) {
    (void)co_await ops.UnlockPage(right);
    (void)co_await ops.UnlockPage(left);
    co_return false;
  }

  // Migrate both pages into a fresh round-robin page so repeated merges
  // do not collapse the chain's server scatter (the fine-grained design's
  // whole point).
  const AllocResult fresh_alloc = co_await ops.AllocPageRoundRobin();
  if (!fresh_alloc.ok()) {
    (void)co_await ops.UnlockPage(right);
    (void)co_await ops.UnlockPage(left);
    co_return false;  // merge abandoned; GC retries next epoch
  }
  const rdma::RemotePtr fresh = fresh_alloc.ptr;
  std::vector<uint8_t> image(page_size);
  PageView nv(image.data(), page_size);
  nv.InitLeaf(rv.high_key(), rv.right_sibling());
  btree::KV* ne = nv.leaf_entries();
  for (uint32_t i = 0; i < ln; ++i) ne[i] = lv.leaf_entries()[i];
  for (uint32_t i = 0; i < rn; ++i) ne[ln + i] = rv.leaf_entries()[i];
  nv.header().count = static_cast<uint16_t>(ln + rn);
  // Fresh-page publication (primary + live backups under replication).
  if (!(co_await ops.WriteFreshPage(fresh, image.data())).ok()) {
    co_return false;  // absorber unpublished: harmless leak
  }

  // Publish right first (drained, rerouted to the absorber), then left:
  // any reader entering through either page converges on the absorber, and
  // the scans' monotonic fence cursor de-duplicates the transient overlap.
  rv.header().count = 0;
  rv.header().high_key = 0;
  rv.header().flags |= btree::kDrainedFlag;
  rv.header().right_sibling = fresh.raw();
  if (!(co_await ops.WriteUnlockPage(right, right_buf)).ok()) co_return false;

  lv.header().count = 0;
  lv.header().high_key = 0;
  lv.header().flags |= btree::kDrainedFlag;
  lv.header().right_sibling = fresh.raw();
  if (!(co_await ops.WriteUnlockPage(left, left_buf)).ok()) co_return false;

  // Bypass the drained pair when the tracked predecessor still points at
  // the left page (failure is benign: the chain via the drained pages
  // still reaches the absorber, and a later epoch unlinks them).
  if (!prev.is_null()) {
    const PageReadResult plock = co_await ops.LockPage(prev, right_buf);
    if (!plock.ok()) co_return false;
    PageView pv(right_buf, page_size);
    if (pv.right_sibling() == left.raw()) {
      pv.header().right_sibling = fresh.raw();
      if ((co_await ops.WriteUnlockPage(prev, right_buf)).ok()) {
        *relinked = true;
      }
    } else {
      (void)co_await ops.UnlockPage(prev);
    }
  }

  *replacement = fresh;
  (*changed)++;
  co_return true;
}

sim::Task<Status> LeafLevel::RebuildHeadNodes(RemoteOps ops,
                                              rdma::RemotePtr first,
                                              uint32_t interval) {
  if (interval == 0) co_return Status::OK();
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();

  // Pass 1: collect the current real-leaf chain.
  std::vector<uint64_t> leaves;
  rdma::RemotePtr ptr = first;
  while (!ptr.is_null()) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!read.ok()) co_return read.status;
    PageView view(buf, page_size);
    if (!view.is_head() && !view.is_drained()) leaves.push_back(ptr.raw());
    ptr = rdma::RemotePtr(view.right_sibling());
  }

  // Pass 2: rewire the whole chain against the pass-1 snapshot — install a
  // fresh head after every interval-th leaf and bypass every old head
  // elsewhere. A leaf whose sibling matches neither the snapshot's next
  // leaf nor a head has split meanwhile; it is left alone and the next
  // epoch pass fixes its grouping.
  std::vector<uint8_t> probe_buf(page_size);
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    const rdma::RemotePtr leaf_ptr(leaves[i]);
    const bool boundary = ((i + 1) % interval == 0);

    uint64_t desired = leaves[i + 1];
    if (boundary) {
      const size_t g = i + 1;
      const uint32_t n = static_cast<uint32_t>(std::min<size_t>(
          {static_cast<size_t>(interval), leaves.size() - g,
           static_cast<size_t>(PageView::HeadCapacity(page_size))}));
      const AllocResult head_alloc =
          co_await ops.AllocPage(rdma::RemotePtr(leaves[g]).server_id());
      if (!head_alloc.ok()) {
        if (head_alloc.status.IsOutOfMemory()) {
          co_return Status::OutOfMemory("head rebuild");
        }
        co_return head_alloc.status;
      }
      const rdma::RemotePtr head_ptr = head_alloc.ptr;
      uint8_t* hbuf = ops.ctx().page_b();
      PageView head(hbuf, page_size);
      head.InitHead(leaves[g]);
      for (uint32_t k = 0; k < n; ++k) head.head_ptrs()[k] = leaves[g + k];
      head.header().count = static_cast<uint16_t>(n);
      // Fresh-page publication (primary + live backups under replication).
      const Status published = co_await ops.WriteFreshPage(head_ptr, hbuf);
      if (!published.ok()) co_return published;
      desired = head_ptr.raw();
    }

    const PageReadResult lock = co_await ops.LockPage(leaf_ptr, buf);
    if (!lock.ok()) co_return lock.status;
    PageView pv(buf, page_size);
    const uint64_t sibling = pv.right_sibling();
    bool relink = sibling == desired ? false : sibling == leaves[i + 1];
    if (!relink && sibling != desired && sibling != 0) {
      const Status probe =
          co_await ops.ReadPage(rdma::RemotePtr(sibling), probe_buf.data());
      if (!probe.ok()) {
        (void)co_await ops.UnlockPage(leaf_ptr);
        co_return probe;
      }
      relink = PageView(probe_buf.data(), page_size).is_head();
    }
    if (relink) {
      pv.header().right_sibling = desired;
      const Status wu = co_await ops.WriteUnlockPage(leaf_ptr, buf);
      if (!wu.ok()) co_return wu;
    } else {
      const Status ul = co_await ops.UnlockPage(leaf_ptr);
      if (!ul.ok()) co_return ul;
    }
  }
  co_return Status::OK();
}

sim::Task<uint64_t> LeafLevel::CountChain(RemoteOps ops,
                                          rdma::RemotePtr first,
                                          uint64_t* live_entries,
                                          uint64_t* tombstones) {
  const uint32_t page_size = ops.page_size();
  uint8_t* buf = ops.ctx().page_a();
  uint64_t pages = 0;
  uint64_t live = 0;
  uint64_t dead = 0;
  rdma::RemotePtr ptr = first;
  while (!ptr.is_null()) {
    const PageReadResult read = co_await ops.ReadPageUnlocked(ptr, buf);
    if (!read.ok()) break;  // degraded: report the pages counted so far
    PageView view(buf, page_size);
    pages++;
    if (!view.is_head()) {
      const uint32_t page_live =
          view.LeafCollectLive(0, kInfinityKey, nullptr);
      live += page_live;
      dead += view.count() - page_live;
    }
    ptr = rdma::RemotePtr(view.right_sibling());
  }
  if (live_entries != nullptr) *live_entries = live;
  if (tombstones != nullptr) *tombstones = dead;
  co_return pages;
}

}  // namespace namtree::index
