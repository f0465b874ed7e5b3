#ifndef NAMTREE_INDEX_SERVER_TREE_H_
#define NAMTREE_INDEX_SERVER_TREE_H_

#include <coroutine>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "btree/page.h"
#include "btree/types.h"
#include "common/status.h"
#include "index/index.h"
#include "nam/memory_server.h"
#include "sim/task.h"

namespace namtree::index {

/// A B-link tree living inside one memory server's region, operated on by
/// that server's RPC handler coroutines in simulated time.
///
/// This is the server side of the coarse-grained design (§3): optimistic
/// lock coupling exactly as Listing 1/3 — handlers spin on the lock bit,
/// validate versions after searching a node, and escalate to the write lock
/// with a local CAS — with every node visit charged to the worker's CPU, so
/// lock waits and CPU saturation shape throughput the way they do on real
/// memory servers.
///
/// Two modes:
///   * local leaves  (CG): level 0 pages hold the data.
///   * remote leaf children (hybrid, §5): the lowest *local* level is 1;
///     its children are RemotePtrs to fine-grained leaves that live on any
///     memory server and are accessed one-sided by clients.
class ServerTree {
 public:
  /// A child reference used to build the hybrid upper levels.
  struct ChildRef {
    btree::Key low;    ///< smallest key reachable through the child
    uint64_t raw_ptr;  ///< RemotePtr::raw() of the child page
  };

  struct TreeStats {
    uint64_t pages = 0;
    uint64_t height = 0;
    uint64_t live_entries = 0;
    uint64_t tombstones = 0;
  };

  ServerTree(nam::MemoryServer& server, uint32_t page_size)
      : server_(server), page_size_(page_size) {}

  ServerTree(const ServerTree&) = delete;
  ServerTree& operator=(const ServerTree&) = delete;

  uint32_t page_size() const { return page_size_; }
  nam::MemoryServer& server() { return server_; }

  // ---- Setup-time construction (no virtual time) --------------------------

  /// CG mode: builds leaves + inner levels over `sorted` in this server's
  /// region.
  Status Build(std::span<const btree::KV> sorted, uint32_t fill_percent);

  /// Hybrid mode: builds inner levels over remote leaf children. The tree
  /// then ends at level 1; lookups return child pointers.
  Status BuildOverChildren(std::span<const ChildRef> children,
                           uint32_t fill_percent);

  // ---- Handler-side operations (coroutines in virtual time) ----------------

  sim::Task<LookupResult> Lookup(btree::Key key);

  /// Counts the live entries in [lo, hi) and appends them to `out` (CG mode
  /// only). A null `out` makes the scan count-only: it visits and charges
  /// the same leaves but copies no rows.
  sim::Task<uint64_t> Scan(btree::Key lo, btree::Key hi,
                           std::vector<btree::KV>* out);

  sim::Task<Status> Insert(btree::Key key, btree::Value value);
  sim::Task<Status> Update(btree::Key key, btree::Value value) {
    co_return co_await EditFirstLive(key, value);
  }
  sim::Task<uint64_t> LookupAll(btree::Key key,
                                std::vector<btree::Value>* out);
  sim::Task<Status> Delete(btree::Key key) {
    co_return co_await EditFirstLive(key, std::nullopt);
  }

  /// Compacts tombstones out of all local leaves (CG epoch GC).
  sim::Task<uint64_t> Compact();

  /// Hybrid: raw RemotePtr of the leaf child whose range contains `key`.
  sim::Task<uint64_t> FindLeafChild(btree::Key key);

  /// Hybrid: installs a separator produced by a one-sided leaf split.
  sim::Task<Status> InstallChildSeparator(btree::Key sep, uint64_t child_raw);

  /// Host-side inspection (quiescent use).
  TreeStats GetStats() const;

  uint64_t root_raw() const { return root_raw_; }
  uint8_t root_level() const { return root_level_; }
  bool remote_leaves() const { return remote_leaves_; }

 private:
  /// Outcome of a root-growth attempt (see TryGrowRoot).
  enum class GrowResult { kDone, kLostRace, kExhausted };

  btree::PageView View(uint64_t raw) const;
  bool IsLocalPage(uint64_t raw) const;

  /// Shared body of Update and Delete: under the leaf lock, sets the first
  /// live entry with `key` to `*value`, or tombstones it when `value` is
  /// empty. NotFound when no live entry exists.
  sim::Task<Status> EditFirstLive(btree::Key key,
                                  std::optional<btree::Value> value);

  /// Allocates one page from this server's region. 0 = region exhausted
  /// (kResourceExhausted surfaces through the caller, never an assert).
  uint64_t AllocatePage();

  /// Charges handler CPU (scaled for the QPI penalty).
  sim::Delay Cpu(SimTime base);

  /// Awaitable of AwaitUnlocked: an unlocked word completes without
  /// suspending; a locked one starts the spin coroutine.
  class UnlockedWait {
   public:
    UnlockedWait(ServerTree& tree, uint64_t raw) : tree_(tree), raw_(raw) {}
    bool await_ready();
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h);
    uint64_t await_resume();

   private:
    ServerTree& tree_;
    uint64_t raw_;
    uint64_t word_ = 0;
    sim::Task<uint64_t> spin_;
  };

  /// Awaits the node's lock bit, charging spin time. Returns the version.
  UnlockedWait AwaitUnlocked(uint64_t raw) { return {*this, raw}; }
  /// Spins on a locked node until its lock bit clears (Listing 3).
  sim::Task<uint64_t> SpinUntilUnlocked(uint64_t raw);

  /// Descends to the lowest local level for `key` (level 0 in CG mode,
  /// level 1 in hybrid mode), charging CPU per node. Returns the node's raw
  /// pointer and its validated version in `*version`.
  sim::Task<uint64_t> DescendToBottom(btree::Key key, uint64_t* version);

  /// Descends to the node at `level`, locks it (chasing right as needed),
  /// returns it; 0 when the root is below `level`.
  sim::Task<uint64_t> DescendToLevelLocked(uint8_t level, btree::Key sep);

  /// Installs a separator at `level` after a split of (left, right).
  /// kResourceExhausted = the region ran out of pages mid-propagation; the
  /// tree stays valid via the sibling chain (B-link), the separator is
  /// simply not indexed yet.
  sim::Task<Status> InstallSeparator(uint8_t level, btree::Key sep,
                                     uint64_t left_raw, uint64_t right_raw);

  GrowResult TryGrowRoot(uint8_t new_level, btree::Key sep, uint64_t left_raw,
                         uint64_t right_raw);

  /// Generic bottom-up builder over one prepared bottom level.
  Status BuildUpper(std::vector<ChildRef> level_nodes, uint8_t bottom_level,
                    uint32_t fill_percent);

  nam::MemoryServer& server_;
  uint32_t page_size_;
  bool remote_leaves_ = false;
  uint8_t bottom_level_ = 0;  ///< lowest level stored locally
  uint64_t root_raw_ = 0;
  uint8_t root_level_ = 0;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_SERVER_TREE_H_
