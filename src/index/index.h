#ifndef NAMTREE_INDEX_INDEX_H_
#define NAMTREE_INDEX_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "btree/types.h"
#include "common/status.h"
#include "nam/cluster.h"
#include "sim/task.h"

namespace namtree::index {

/// How the key space is assigned to memory servers in the coarse-grained
/// and hybrid designs (paper §2.2 / Table 2).
enum class PartitionKind {
  kRange,
  kHash,
};

/// Tuning knobs shared by all index designs.
struct IndexConfig {
  /// Index node (page) size in bytes; the paper's default is 1024 (Table 1).
  uint32_t page_size = 1024;

  /// Install a head node after every `head_node_interval` real leaves
  /// (paper §4.3); 0 disables head nodes. Only meaningful for designs with
  /// a fine-grained leaf level (FG, hybrid).
  uint32_t head_node_interval = 16;

  /// Partitioning scheme for the coarse-grained / hybrid upper levels.
  PartitionKind partition = PartitionKind::kRange;

  /// Fraction of the data assigned to each memory server under range
  /// partitioning. Empty = uniform. The paper's attribute-value-skew setup
  /// uses {0.80, 0.12, 0.05, 0.03} (§6.1).
  std::vector<double> partition_weights;

  /// Bulk-load fill factor of leaf pages, percent.
  uint32_t leaf_fill_percent = 90;

  /// Epoch rebalancing (paper §3.2/§4.2: GC "removing and re-balancing the
  /// index in regular intervals"): during GarbageCollect of designs with a
  /// one-sided leaf level, merge adjacent leaves whose combined live
  /// entries fit within this percentage of a page (0 disables).
  uint32_t gc_merge_fill_percent = 70;

  /// Appendix A.4 extension: per-client cache budget (entries) for the
  /// traversal engine's cache policy (0 = disabled). The fine-grained and
  /// coarse-one-sided designs cache inner-node images to skip remote reads
  /// during descent; the hybrid design caches resolved leaf routes
  /// (key -> leaf pointer) to skip find-leaf RPCs. Stale entries are safe
  /// (the B-link sibling chase recovers) and short-lived: fence validation
  /// drops an entry as soon as the first remote image of a page it routed
  /// to disagrees with it (docs/traversal.md, "Fence validation"). A key
  /// equal to a separator legitimately chases once (ties route left), so
  /// the check compares fences and never counts chases.
  uint32_t client_cache_pages = 0;
  /// Opt-in ablation setting: expire every cache entry this long after
  /// loading it (0 = never, the default; fence validation alone bounds
  /// staleness). The speculative-descent benches use it to measure
  /// prediction through expired images.
  SimTime client_cache_ttl = 0;

  /// One-RTT speculative descent for the one-sided designs (FG,
  /// CG-one-sided; requires client_cache_pages > 0). Predict the full
  /// root→leaf path from cached inner images — including TTL-expired ones —
  /// and fetch every missing/expired predicted page plus the leaf in a
  /// single doorbell-batched READ, validating top-down with fallback to the
  /// level-by-level descent. Default off: bit-identical behavior to the
  /// plain loop (see docs/traversal.md, "Speculative descent").
  bool speculative_descent = false;
};

/// Outcome of a point query. `status` distinguishes a clean miss (OK,
/// found=false) from a degraded-mode failure (kUnavailable / kTimedOut).
struct [[nodiscard]] LookupResult {
  bool found = false;
  btree::Value value = 0;
  Status status;
};

/// The common interface of the distributed index designs (the paper's
/// Designs 1-3, the design-matrix completion, and the hash baseline). All
/// data-path operations are coroutines running in simulated time on behalf
/// of one compute-server client.
class DistributedIndex {
 public:
  virtual ~DistributedIndex() = default;

  /// Builds the index over `sorted` (ascending by key) at setup time
  /// (outside simulated time). Must be called once, before any operation.
  virtual Status BulkLoad(std::span<const btree::KV> sorted) = 0;

  /// Point query: any live entry with `key` (workload A).
  virtual sim::Task<LookupResult> Lookup(nam::ClientContext& ctx,
                                         btree::Key key) = 0;

  /// Range query over [lo, hi) (workload B). Appends hits to `out` when it
  /// is non-null; returns the match count either way. `status`, when
  /// non-null, reports how the scan ended: OK for a complete pass,
  /// kUnavailable/kTimedOut when degraded mode truncated it (the count is
  /// then partial) — the distinction feeds the YCSB FailureBreakdown via
  /// StatusClassOf.
  virtual sim::Task<uint64_t> Scan(nam::ClientContext& ctx, btree::Key lo,
                                   btree::Key hi, std::vector<btree::KV>* out,
                                   Status* status = nullptr) = 0;

  /// Inserts (key, value); duplicates allowed (workloads C/D).
  virtual sim::Task<Status> Insert(nam::ClientContext& ctx, btree::Key key,
                                   btree::Value value) = 0;

  /// Overwrites the value of the first live entry with `key` in place
  /// (original YCSB's update operation). Returns NotFound when the key has
  /// no live entry.
  virtual sim::Task<Status> Update(nam::ClientContext& ctx, btree::Key key,
                                   btree::Value value) = 0;

  /// Collects the values of *all* live entries with `key` (non-unique
  /// secondary index semantics). Returns the number found.
  virtual sim::Task<uint64_t> LookupAll(nam::ClientContext& ctx,
                                        btree::Key key,
                                        std::vector<btree::Value>* out) = 0;

  /// Tombstones one live entry with `key` (removed later by epoch GC).
  virtual sim::Task<Status> Delete(nam::ClientContext& ctx,
                                   btree::Key key) = 0;

  /// One epoch-GC pass: leaf compaction, and for designs with a one-sided
  /// leaf level also rebalancing (merge underfull pages) and head-node
  /// rebuilds. Runs as the design prescribes: on the memory servers for
  /// CG, from a compute client for FG leaves. Returns reclaimed entries.
  virtual sim::Task<uint64_t> GarbageCollect(nam::ClientContext& ctx) = 0;

  /// Batched point lookup: answers `keys[i]` into `results[i]` (which must
  /// have space for keys.size() entries). Semantically identical to
  /// keys.size() independent Lookup calls — same found/value/status per key
  /// — but designs exploit batch locality: the one-sided designs sort the
  /// keys, group them by locally predicted leaf, and serve each group from
  /// one chain walk (one READ per visited page); the hybrid design groups
  /// by cached route; the RPC design ships one lookup frame per server.
  /// The default runs the keys sequentially through Lookup.
  virtual sim::Task<void> MultiGet(nam::ClientContext& ctx,
                                   std::span<const btree::Key> keys,
                                   LookupResult* results);

  /// Human-readable design name ("coarse-grained", ...).
  virtual std::string name() const = 0;

  /// Index page size (clients size their scratch buffers from this).
  virtual uint32_t page_size() const = 0;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_INDEX_H_
