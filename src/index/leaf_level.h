#ifndef NAMTREE_INDEX_LEAF_LEVEL_H_
#define NAMTREE_INDEX_LEAF_LEVEL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "btree/page.h"
#include "btree/types.h"
#include "common/status.h"
#include "index/fence_check.h"
#include "index/index.h"
#include "index/remote_ops.h"
#include "index/server_tree.h"
#include "rdma/fabric.h"
#include "rdma/remote_ptr.h"
#include "sim/task.h"

namespace namtree::index {

/// The fine-grained leaf level shared by Design 2 (FG) and Design 3
/// (hybrid): a globally linked B-link chain of leaf pages scattered
/// round-robin over all memory servers, accessed purely with one-sided
/// verbs, with optional head nodes every n leaves for range-scan prefetch
/// (paper §4.3).
///
/// All functions are stateless: chain state lives entirely in the memory
/// servers' regions. The entry points a descent hands its leaf to take the
/// descent's FenceCheck (DescentResult::fence, or a default-constructed one
/// when no cache routed the caller) and check it against the first image
/// they read, so a stale cached parent or route is dropped
/// (docs/traversal.md, "Fence validation").
class LeafLevel {
 public:
  /// Outcome of `InsertAt` when the target leaf had to be split.
  struct SplitInfo {
    bool split = false;
    btree::Key separator = 0;
    rdma::RemotePtr right;
  };

  struct BuildResult {
    /// (low key, pointer) of every real leaf, for building upper levels.
    std::vector<ServerTree::ChildRef> leaf_refs;
    /// First page of the chain (the leftmost real leaf).
    rdma::RemotePtr first;
  };

  /// Builds the chain over `sorted` at setup time (direct region writes):
  /// leaves round-robin across servers (or all on `fixed_server` when >= 0,
  /// for coarse-grained one-sided partitions), head nodes per
  /// `config.head_node_interval`.
  static Status Build(rdma::Fabric& fabric, std::span<const btree::KV> sorted,
                      const IndexConfig& config, BuildResult* out,
                      int32_t fixed_server = -1);

  /// Point search starting at the leaf that covers `key` (chases siblings,
  /// skips head nodes). Listing 2's leaf phase. `preread`, when non-null,
  /// is a consistent (unlocked) image of the page at `start` the caller
  /// already holds — a speculative-descent prefetch — consumed in place of
  /// the first remote read; chases past it read remotely as usual.
  static sim::Task<LookupResult> SearchChain(RemoteOps ops,
                                             rdma::RemotePtr start,
                                             btree::Key key,
                                             const uint8_t* preread,
                                             FenceCheck fence);

  /// Multi-point search (Index::MultiGet): serves `keys` — ascending, all
  /// routed to the chain position at `start` by the caller's grouping —
  /// with one READ per *visited page* instead of one chain walk per key:
  /// every key covered by the current image is answered locally, and the
  /// walk chases right only once the next key is beyond the current fence.
  /// `results[i]` corresponds to `keys[i]`. Stops on the first failed read
  /// (remaining results carry its status). `fence` is the promise of the
  /// cached entry the grouping predicted `start` from.
  static sim::Task<Status> SearchChainMulti(RemoteOps ops,
                                            rdma::RemotePtr start,
                                            std::span<const btree::Key> keys,
                                            LookupResult* results,
                                            FenceCheck fence);

  /// Range scan over [lo, hi) starting at the leaf covering `lo`. Uses
  /// head-node prefetch via selectively-signaled batched reads whose images
  /// stay in place (rdma::InPlaceImage; storage in the client's
  /// ScanBatch); outdated head nodes fall back to single reads (§4.3).
  /// Appends to `out` if non-null; returns the hit count. `status`, when
  /// non-null, receives OK on a complete pass or the failing read's status
  /// (kUnavailable for a dead client/server, kTimedOut for an exhausted
  /// flaky-net retry budget) when the count is partial.
  static sim::Task<uint64_t> ScanChain(RemoteOps ops, rdma::RemotePtr start,
                                       btree::Key lo, btree::Key hi,
                                       std::vector<btree::KV>* out,
                                       Status* status, FenceCheck fence);

  /// One-sided insert into the chain at the leaf covering `key` (Listing 2
  /// leaf phase): remote CAS lock, local modify, chained WRITE + unlock. On a
  /// split, the new right page is allocated via RDMA_ALLOC — round-robin
  /// across servers, or on `alloc_server` when >= 0 — and reported through
  /// `split` so the caller can install the separator.
  static sim::Task<Status> InsertAt(RemoteOps ops, rdma::RemotePtr start,
                                    btree::Key key, btree::Value value,
                                    SplitInfo* split, int32_t alloc_server,
                                    FenceCheck fence);

  /// One-sided in-place value update of the first live entry with `key`.
  static sim::Task<Status> UpdateAt(RemoteOps ops, rdma::RemotePtr start,
                                    btree::Key key, btree::Value value,
                                    FenceCheck fence) {
    co_return co_await EditFirstLiveAt(ops, start, key, value, fence);
  }

  /// Collects the values of all live entries with `key`, chasing the chain
  /// across duplicate runs. Returns the number found.
  static sim::Task<uint64_t> CollectAt(RemoteOps ops, rdma::RemotePtr start,
                                       btree::Key key,
                                       std::vector<btree::Value>* out,
                                       FenceCheck fence);

  /// One-sided tombstone delete at the leaf covering `key`.
  static sim::Task<Status> DeleteAt(RemoteOps ops, rdma::RemotePtr start,
                                    btree::Key key, FenceCheck fence) {
    co_return co_await EditFirstLiveAt(ops, start, key, std::nullopt, fence);
  }

  /// Epoch-GC pass run from a compute server: compacts tombstoned entries
  /// out of every leaf using the one-sided lock protocol. Returns the
  /// number of reclaimed entries.
  static sim::Task<uint64_t> CompactChain(RemoteOps ops,
                                          rdma::RemotePtr first);

  /// Epoch rebalancing (the paper's "removing and re-balancing the index
  /// in regular intervals"): migrates adjacent underfull leaf pairs into a
  /// fresh round-robin page (preserving the chain's server scatter), marks
  /// the pair drained (empty, high fence 0, rerouted to the absorber, so
  /// every search chases into it), and unlinks previously drained pages.
  /// Merging happens when the combined live entries fit within
  /// `max_fill_percent` of a leaf and never straddles a duplicate run.
  /// Intended to run from the single epoch-GC thread (it holds two page
  /// locks left-to-right). Returns the number of pages drained or unlinked.
  static sim::Task<uint64_t> RebalanceChain(RemoteOps ops,
                                            rdma::RemotePtr first,
                                            uint32_t max_fill_percent);

  /// Epoch head-node maintenance: re-walks the chain and installs fresh
  /// head nodes every `interval` leaves (old heads become garbage).
  static sim::Task<Status> RebuildHeadNodes(RemoteOps ops,
                                            rdma::RemotePtr first,
                                            uint32_t interval);

  /// Collects the pointers of all real leaves by walking the chain
  /// (diagnostics / maintenance).
  static sim::Task<uint64_t> CountChain(RemoteOps ops, rdma::RemotePtr first,
                                        uint64_t* live_entries,
                                        uint64_t* tombstones);

 private:
  /// Shared body of UpdateAt and DeleteAt: finds the first live entry with
  /// `key` along the chain, locks its leaf (remote CAS), sets the entry's
  /// value to `*value` — or tombstones it when `value` is empty — and
  /// publishes with a chained WRITE + unlock. NotFound when no live entry
  /// exists.
  static sim::Task<Status> EditFirstLiveAt(RemoteOps ops,
                                           rdma::RemotePtr start,
                                           btree::Key key,
                                           std::optional<btree::Value> value,
                                           FenceCheck fence);

  /// Locks (left, right) in chain order, migrates both pages' live entries
  /// into a fresh round-robin page (preserving the chain's server scatter),
  /// drains the pair, and bypasses it from `prev` when possible. Returns
  /// false (all locks released, nothing changed) when the chain moved or
  /// the merge preconditions fail under the locks.
  static sim::Task<bool> TryMerge(RemoteOps ops, rdma::RemotePtr prev,
                                  rdma::RemotePtr left, rdma::RemotePtr right,
                                  rdma::RemotePtr* replacement,
                                  bool* relinked, uint64_t* changed);
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_LEAF_LEVEL_H_
