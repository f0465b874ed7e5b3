#include "index/server_tree.h"

#include <algorithm>
#include <cassert>

#include "rdma/remote_ptr.h"

namespace namtree::index {

using btree::IsLocked;
using btree::Key;
using btree::KV;
using btree::kInfinityKey;
using btree::PageView;
using btree::Value;
using btree::WithLockBit;

namespace {

uint64_t& Word(PageView view) { return view.header().version_lock; }

}  // namespace

PageView ServerTree::View(uint64_t raw) const {
  const rdma::RemotePtr ptr(raw);
  assert(!ptr.is_null());
  assert(ptr.server_id() == server_.server_id());
  return PageView(server_.region().at(ptr.offset()), page_size_);
}

bool ServerTree::IsLocalPage(uint64_t raw) const {
  const rdma::RemotePtr ptr(raw);
  return !ptr.is_null() && ptr.server_id() == server_.server_id();
}

uint64_t ServerTree::AllocatePage() {
  const rdma::RemotePtr ptr = server_.region().AllocateLocal(page_size_);
  if (ptr.is_null()) return 0;  // region exhausted: caller surfaces it
  return ptr.raw();
}

sim::Delay ServerTree::Cpu(SimTime base) {
  return sim::Delay(server_.fabric().simulator(), server_.ScaledCpu(base));
}

bool ServerTree::UnlockedWait::await_ready() {
  // The caller reads the rest of the page next, usually after a CPU
  // charge that leaves the host time to fetch it.
  const PageView view = tree_.View(raw_);
  view.Prefetch();
  word_ = Word(view);
  return !IsLocked(word_);
}

std::coroutine_handle<> ServerTree::UnlockedWait::await_suspend(
    std::coroutine_handle<> h) {
  spin_ = tree_.SpinUntilUnlocked(raw_);
  return spin_.await_suspend(h);
}

uint64_t ServerTree::UnlockedWait::await_resume() {
  return spin_.valid() ? spin_.await_resume() : word_;
}

sim::Task<uint64_t> ServerTree::SpinUntilUnlocked(uint64_t raw) {
  PageView view = View(raw);
  for (;;) {
    const uint64_t word = Word(view);
    if (!IsLocked(word)) co_return word;
    // The handler thread spins on the lock bit (Listing 3), keeping its
    // worker busy — exactly the effect §6.3 observes under write load.
    co_await sim::Delay(server_.fabric().simulator(),
                        server_.fabric().config().lock_retry_ns);
  }
}

sim::Task<uint64_t> ServerTree::DescendToBottom(Key key, uint64_t* version) {
  const auto& config = server_.fabric().config();
  for (;;) {  // restart loop
    uint64_t node = root_raw_;
    uint64_t v = co_await AwaitUnlocked(node);
    bool restart = false;
    while (!restart) {
      PageView view = View(node);
      if (view.level() == bottom_level_) {
        *version = v;
        co_return node;
      }
      // Route now (right sibling past the fence, else the child) and
      // prefetch the page it names, so the charge below hides the host's
      // cache miss. The route is used only once the version word
      // revalidates after the charge; an unchanged word means unchanged
      // bytes, so it is the route a read after the charge would take.
      const bool chase = key > view.high_key();
      const uint64_t next =
          chase ? view.right_sibling() : view.InnerChildFor(key);
      if (next != 0) View(next).Prefetch();
      // Model the binary search of the node, then act on a validated
      // snapshot (readUnlockOrRestart/checkOrRestart in Listing 1).
      co_await Cpu(config.cpu_inner_node_ns);
      if (Word(view) != v) {
        restart = true;
        break;
      }
      if (chase) {
        if (next == 0) {
          restart = true;
          break;
        }
        node = next;
        v = co_await AwaitUnlocked(node);
        continue;
      }
      const uint64_t child_version = co_await AwaitUnlocked(next);
      if (Word(view) != v) {
        restart = true;
        break;
      }
      node = next;
      v = child_version;
    }
  }
}

sim::Task<LookupResult> ServerTree::Lookup(Key key) {
  assert(!remote_leaves_ && "use FindLeafChild in hybrid mode");
  const auto& config = server_.fabric().config();
  for (;;) {
    uint64_t v = 0;
    uint64_t node = co_await DescendToBottom(key, &v);
    bool restart = false;
    while (!restart) {
      PageView view = View(node);
      co_await Cpu(config.cpu_leaf_node_ns);
      if (Word(view) != v) {
        restart = true;
        break;
      }
      const int32_t idx = view.LeafFindLive(key);
      if (idx >= 0) {
        co_return LookupResult{true, view.leaf_entries()[idx].value,
                               Status::OK()};
      }
      if (view.NeedsChase(key)) {
        node = view.right_sibling();
        v = co_await AwaitUnlocked(node);
        continue;
      }
      co_return LookupResult{false, 0, Status::OK()};
    }
  }
}

sim::Task<uint64_t> ServerTree::Scan(Key lo, Key hi,
                                     std::vector<KV>* out) {
  assert(!remote_leaves_ && "hybrid scans walk the leaf chain client-side");
  const auto& config = server_.fabric().config();
  if (lo >= hi) co_return 0;
  uint64_t v = 0;
  uint64_t node = co_await DescendToBottom(lo, &v);
  uint64_t found = 0;
  for (;;) {
    PageView view = View(node);
    // The leaf the scan moves to next, fetched while the charge runs.
    const uint64_t next = view.right_sibling();
    if (IsLocalPage(next) && view.high_key() < hi) View(next).Prefetch();
    co_await Cpu(config.cpu_leaf_node_ns);
    if (Word(view) != v) {
      v = co_await AwaitUnlocked(node);
      continue;  // re-scan this page
    }
    found += view.LeafCollectLive(lo, hi, out);
    if (view.right_sibling() == 0) co_return found;
    if (view.high_key() >= hi) co_return found;
    node = view.right_sibling();
    v = co_await AwaitUnlocked(node);
  }
}

sim::Task<Status> ServerTree::Insert(Key key, Value value) {
  assert(!remote_leaves_);
  const auto& config = server_.fabric().config();
  for (;;) {
    uint64_t v = 0;
    uint64_t node = co_await DescendToBottom(key, &v);
    // Chase right while the key belongs further on (duplicate-run fences or
    // a concurrent split).
    bool restart = false;
    for (;;) {
      PageView view = View(node);
      if (Word(view) != v) {
        restart = true;
        break;
      }
      if (view.NeedsChase(key)) {
        node = view.right_sibling();
        v = co_await AwaitUnlocked(node);
        continue;
      }
      break;
    }
    if (restart) continue;

    PageView view = View(node);
    if (Word(view) != v) continue;
    Word(view) = WithLockBit(v);  // upgradeToWriteLockOrRestart (CAS)
    co_await Cpu(config.cpu_leaf_node_ns + config.cpu_insert_extra_ns);

    if (view.LeafInsert(key, value)) {
      Word(view) = v + 2;  // writeUnlock
      co_return Status::OK();
    }

    // Split while holding the leaf lock (Listing 1 propagation).
    const uint64_t right_raw = AllocatePage();
    if (right_raw == 0) {
      Word(view) = v + 2;  // release the leaf lock, nothing changed
      co_return Status::ResourceExhausted("leaf split");
    }
    PageView right = View(right_raw);
    const Key separator = view.SplitLeafInto(right, right_raw);
    const bool ok = key < separator ? view.LeafInsert(key, value)
                                    : right.LeafInsert(key, value);
    assert(ok);
    (void)ok;
    co_await Cpu(config.cpu_insert_extra_ns);  // split work
    Word(view) = v + 2;

    // The insert itself took effect (the key is in the left or right half,
    // reachable via the sibling chain); a failed propagation still reports
    // the exhausted region to the caller.
    co_return co_await InstallSeparator(
        static_cast<uint8_t>(bottom_level_ + 1), separator, node, right_raw);
  }
}

sim::Task<Status> ServerTree::EditFirstLive(Key key,
                                            std::optional<Value> value) {
  assert(!remote_leaves_);
  const auto& config = server_.fabric().config();
  for (;;) {
    uint64_t v = 0;
    uint64_t node = co_await DescendToBottom(key, &v);
    for (;;) {
      PageView view = View(node);
      if (Word(view) != v) break;  // restart descent
      Word(view) = WithLockBit(v);
      co_await Cpu(config.cpu_leaf_node_ns);
      const bool edited = value ? view.LeafUpdateFirst(key, *value)
                                : view.LeafMarkDeleted(key);
      const Key high = view.high_key();
      const uint64_t next = view.right_sibling();
      Word(view) = v + 2;
      if (edited) co_return Status::OK();
      if (key >= high && next != 0) {
        node = next;
        v = co_await AwaitUnlocked(node);
        continue;
      }
      co_return Status::NotFound();
    }
  }
}

sim::Task<uint64_t> ServerTree::LookupAll(Key key,
                                          std::vector<Value>* out) {
  assert(!remote_leaves_);
  const auto& config = server_.fabric().config();
  for (;;) {
    uint64_t v = 0;
    uint64_t node = co_await DescendToBottom(key, &v);
    uint64_t found = 0;
    std::vector<Value> page_hits;
    for (;;) {
      PageView view = View(node);
      co_await Cpu(config.cpu_leaf_node_ns);
      if (Word(view) != v) {
        v = co_await AwaitUnlocked(node);
        continue;  // retry this page
      }
      page_hits.clear();
      view.LeafCollect(key, &page_hits);
      found += page_hits.size();
      if (out != nullptr) {
        out->insert(out->end(), page_hits.begin(), page_hits.end());
      }
      if (view.NeedsChase(key)) {
        node = view.right_sibling();
        v = co_await AwaitUnlocked(node);
        continue;
      }
      co_return found;
    }
  }
}

sim::Task<uint64_t> ServerTree::Compact() {
  assert(!remote_leaves_);
  const auto& config = server_.fabric().config();
  uint64_t v = 0;
  uint64_t node = co_await DescendToBottom(0, &v);
  uint64_t reclaimed = 0;
  while (node != 0) {
    PageView view = View(node);
    const uint64_t version = co_await AwaitUnlocked(node);
    Word(view) = WithLockBit(version);
    co_await Cpu(config.cpu_leaf_node_ns);
    reclaimed += view.LeafCompact();
    const uint64_t next = view.right_sibling();
    Word(view) = version + 2;
    node = next;
  }
  co_return reclaimed;
}

sim::Task<uint64_t> ServerTree::FindLeafChild(Key key) {
  assert(remote_leaves_);
  for (;;) {
    uint64_t v = 0;
    uint64_t node = co_await DescendToBottom(key, &v);
    bool restart = false;
    while (!restart) {
      PageView view = View(node);
      co_await Cpu(server_.fabric().config().cpu_inner_node_ns);
      if (Word(view) != v) {
        restart = true;
        break;
      }
      if (view.NeedsChase(key)) {
        // The bottom node split while we descended: chase right.
        node = view.right_sibling();
        v = co_await AwaitUnlocked(node);
        continue;
      }
      co_return view.InnerChildFor(key);
    }
  }
}

sim::Task<Status> ServerTree::InstallChildSeparator(Key sep,
                                                    uint64_t child_raw) {
  assert(remote_leaves_);
  co_return co_await InstallSeparator(bottom_level_, sep, /*left_raw=*/0,
                                      child_raw);
}

sim::Task<uint64_t> ServerTree::DescendToLevelLocked(uint8_t level, Key sep) {
  const auto& config = server_.fabric().config();
  for (;;) {
    if (root_level_ < level) co_return 0;
    uint64_t node = root_raw_;
    uint64_t v = co_await AwaitUnlocked(node);
    if (View(node).level() < level) continue;
    bool restart = false;
    while (!restart) {
      PageView view = View(node);
      if (view.level() == level) {
        if (Word(view) != v) {
          v = co_await AwaitUnlocked(node);
          continue;
        }
        Word(view) = WithLockBit(v);
        // Locked; hand over the lock rightwards while the separator
        // belongs further on (lock coupling along the chain).
        for (;;) {
          PageView cur = View(node);
          if (cur.NeedsChase(sep)) {
            const uint64_t next = cur.right_sibling();
            Word(cur) = btree::VersionOf(Word(cur)) + 2;  // unlock
            node = next;
            // AwaitUnlocked's final read and this store are in the same
            // event, so the lock acquisition cannot be interleaved.
            const uint64_t nv = co_await AwaitUnlocked(node);
            Word(View(node)) = WithLockBit(nv);
            continue;
          }
          break;
        }
        co_return node;
      }
      co_await Cpu(config.cpu_inner_node_ns);
      if (Word(view) != v) {
        restart = true;
        break;
      }
      if (sep > view.high_key()) {
        const uint64_t next = view.right_sibling();
        if (next == 0) {
          restart = true;
          break;
        }
        node = next;
        v = co_await AwaitUnlocked(node);
        continue;
      }
      const uint64_t child = view.InnerChildFor(sep);
      const uint64_t child_version = co_await AwaitUnlocked(child);
      if (Word(view) != v) {
        restart = true;
        break;
      }
      node = child;
      v = child_version;
    }
  }
}

ServerTree::GrowResult ServerTree::TryGrowRoot(uint8_t new_level, Key sep,
                                               uint64_t left_raw,
                                               uint64_t right_raw) {
  if (root_raw_ != left_raw) return GrowResult::kLostRace;
  const uint64_t new_root = AllocatePage();
  if (new_root == 0) return GrowResult::kExhausted;
  PageView view = View(new_root);
  view.InitInner(new_level, kInfinityKey, 0);
  view.inner_keys()[0] = sep;
  view.inner_children()[0] = left_raw;
  view.inner_children()[1] = right_raw;
  view.header().count = 1;
  root_raw_ = new_root;
  root_level_ = new_level;
  return GrowResult::kDone;
}

sim::Task<Status> ServerTree::InstallSeparator(uint8_t level, Key sep,
                                               uint64_t left_raw,
                                               uint64_t right_raw) {
  const auto& config = server_.fabric().config();
  for (;;) {
    if (root_level_ < level) {
      // Only possible when the split node was the root (left_raw known).
      assert(left_raw != 0);
      const GrowResult grew = TryGrowRoot(level, sep, left_raw, right_raw);
      if (grew == GrowResult::kDone) co_return Status::OK();
      if (grew == GrowResult::kExhausted) {
        co_return Status::ResourceExhausted("root growth");
      }
      continue;  // lost the race: some other handler grew the root
    }
    const uint64_t parent = co_await DescendToLevelLocked(level, sep);
    if (parent == 0) continue;
    PageView view = View(parent);
    co_await Cpu(config.cpu_inner_node_ns + config.cpu_insert_extra_ns);
    const uint64_t locked_word = Word(view);
    if (view.InnerInsert(sep, right_raw)) {
      Word(view) = btree::VersionOf(locked_word) + 2;
      co_return Status::OK();
    }
    const uint64_t new_raw = AllocatePage();
    if (new_raw == 0) {
      // Release the held parent lock before surfacing exhaustion: the
      // separator stays uninstalled but the chain below remains navigable.
      Word(view) = btree::VersionOf(locked_word) + 2;
      co_return Status::ResourceExhausted("inner split");
    }
    PageView right = View(new_raw);
    const Key promoted = view.SplitInnerInto(right, new_raw);
    PageView target = sep < promoted ? view : right;
    const bool ok = target.InnerInsert(sep, right_raw);
    assert(ok);
    (void)ok;
    Word(view) = btree::VersionOf(locked_word) + 2;
    co_return co_await InstallSeparator(static_cast<uint8_t>(level + 1),
                                        promoted, parent, new_raw);
  }
}

Status ServerTree::Build(std::span<const KV> sorted, uint32_t fill_percent) {
  remote_leaves_ = false;
  bottom_level_ = 0;
  const uint32_t leaf_fill = std::max<uint32_t>(
      1, PageView::LeafCapacity(page_size_) * fill_percent / 100);

  std::vector<ChildRef> level_nodes;
  size_t i = 0;
  uint64_t prev = 0;
  do {
    const uint64_t raw = AllocatePage();
    if (raw == 0) return Status::ResourceExhausted("bulk-load leaves");
    PageView leaf = View(raw);
    leaf.InitLeaf(kInfinityKey, 0);
    const size_t take = std::min<size_t>(leaf_fill, sorted.size() - i);
    for (size_t j = 0; j < take; ++j) leaf.leaf_entries()[j] = sorted[i + j];
    leaf.header().count = static_cast<uint16_t>(take);
    const Key low = take > 0 ? sorted[i].key : 0;
    if (prev != 0) {
      View(prev).header().right_sibling = raw;
      View(prev).header().high_key = low;
    }
    level_nodes.push_back({low, raw});
    prev = raw;
    i += take;
  } while (i < sorted.size());

  return BuildUpper(std::move(level_nodes), 0, fill_percent);
}

Status ServerTree::BuildOverChildren(std::span<const ChildRef> children,
                                     uint32_t fill_percent) {
  remote_leaves_ = true;
  bottom_level_ = 1;
  if (children.empty()) {
    return Status::InvalidArgument("hybrid tree needs at least one child");
  }
  std::vector<ChildRef> refs(children.begin(), children.end());
  return BuildUpper(std::move(refs), 0, fill_percent);
}

Status ServerTree::BuildUpper(std::vector<ChildRef> level_nodes,
                              uint8_t bottom_level, uint32_t fill_percent) {
  const uint32_t inner_fill = std::max<uint32_t>(
      2, PageView::InnerKeyCapacity(page_size_) * fill_percent / 100);

  uint8_t level = bottom_level;
  // In hybrid mode the lowest local level (1) must exist even when it only
  // has a single child, so build at least one inner level.
  const bool force_one_level = remote_leaves_;
  while (level_nodes.size() > 1 || (force_one_level && level == 0)) {
    level++;
    std::vector<ChildRef> upper;
    size_t j = 0;
    uint64_t prev = 0;
    while (j < level_nodes.size()) {
      const uint64_t raw = AllocatePage();
      if (raw == 0) return Status::ResourceExhausted("bulk-load inner levels");
      PageView inner = View(raw);
      inner.InitInner(level, kInfinityKey, 0);
      const size_t children =
          std::min<size_t>(inner_fill + 1, level_nodes.size() - j);
      inner.inner_children()[0] = level_nodes[j].raw_ptr;
      for (size_t c = 1; c < children; ++c) {
        inner.inner_keys()[c - 1] = level_nodes[j + c].low;
        inner.inner_children()[c] = level_nodes[j + c].raw_ptr;
      }
      inner.header().count = static_cast<uint16_t>(children - 1);
      if (prev != 0) {
        View(prev).header().right_sibling = raw;
        View(prev).header().high_key = level_nodes[j].low;
      }
      upper.push_back({level_nodes[j].low, raw});
      prev = raw;
      j += children;
    }
    level_nodes.swap(upper);
  }

  root_raw_ = level_nodes[0].raw_ptr;
  root_level_ = level;
  return Status::OK();
}

ServerTree::TreeStats ServerTree::GetStats() const {
  TreeStats stats;
  if (root_raw_ == 0) return stats;
  stats.height = root_level_ + 1ull;
  uint64_t node = root_raw_;
  for (;;) {
    PageView view = View(node);
    uint64_t chain = node;
    while (chain != 0 && IsLocalPage(chain)) {
      PageView cv = View(chain);
      stats.pages++;
      if (cv.is_leaf() && !remote_leaves_) {
        const uint32_t live = cv.LeafCollectLive(0, kInfinityKey, nullptr);
        stats.live_entries += live;
        stats.tombstones += cv.count() - live;
      }
      chain = cv.right_sibling();
    }
    if (view.level() == bottom_level_) break;
    node = view.inner_children()[0];
    if (!IsLocalPage(node)) break;
  }
  return stats;
}

}  // namespace namtree::index
