#ifndef NAMTREE_INDEX_HASH_INDEX_H_
#define NAMTREE_INDEX_HASH_INDEX_H_

#include <string>
#include <vector>

#include "index/index.h"
#include "index/remote_ops.h"
#include "nam/cluster.h"
#include "rdma/remote_ptr.h"

namespace namtree::index {

/// Baseline: a one-sided distributed hash index (the related-work class of
/// §8 — Pilaf/FaRM/HERD-style RDMA key-value stores, which [44] used for
/// primary clustered indexes). Implemented to quantify the paper's framing:
/// hash tables win point lookups (one ~128-byte READ versus a tree
/// traversal) but "do not support range queries, which are an important
/// class of queries in OLAP and OLTP workloads".
///
/// Layout: each memory server holds an array of 128-byte buckets; a key
/// hashes to (server, bucket). Buckets carry the same 8-byte version+lock
/// word as tree pages, six key/value slots, and an overflow pointer to a
/// chained bucket allocated via RDMA_ALLOC. Writers use the one-sided lock
/// protocol (CAS / chained WRITE + unlock) per bucket.
///
/// Scan() is intentionally unsupported and returns 0 — that inability *is*
/// the baseline's story. Run only point/insert/update/delete mixes.
class DistributedHashIndex : public DistributedIndex {
 public:
  /// 8 (version) + 2 (count) + 6 (pad) + 6*16 (slots) + 8 (overflow) + 8.
  static constexpr uint32_t kBucketBytes = 128;
  static constexpr uint32_t kSlotsPerBucket = 6;

  /// `buckets_per_key` controls the load factor at bulk load; the default
  /// targets ~2 live entries per (head) bucket.
  DistributedHashIndex(nam::Cluster& cluster, IndexConfig config,
                       double buckets_per_key = 0.5);

  Status BulkLoad(std::span<const btree::KV> sorted) override;

  sim::Task<LookupResult> Lookup(nam::ClientContext& ctx,
                                 btree::Key key) override;
  /// Unsupported: hash indexes cannot serve range queries (§8). Returns 0
  /// with an OK status (the inability is structural, not a failure).
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
  /// Hash deletes are in-place (no tombstones); nothing to collect.
  sim::Task<uint64_t> GarbageCollect(nam::ClientContext& ctx) override;

  std::string name() const override { return "hash-baseline"; }
  /// Clients size their scratch buffers to one bucket.
  uint32_t page_size() const override { return kBucketBytes; }

  uint64_t buckets_per_server() const { return buckets_per_server_; }

  /// Host-side structural validation (quiescent use): bucket counts within
  /// capacity, overflow chains acyclic, no leaked lock bits, every entry
  /// hashed to its home chain. Returns human-readable violations (empty =
  /// sound) and fills basic statistics.
  struct Report {
    uint64_t head_buckets = 0;
    uint64_t overflow_buckets = 0;
    uint64_t entries = 0;
    std::vector<std::string> violations;
    bool ok() const { return violations.empty(); }
  };
  Report ValidateStructure() const;

 private:
  struct BucketRef {
    rdma::RemotePtr ptr;
  };

  static uint64_t HashKey(btree::Key key);
  rdma::RemotePtr HeadBucketFor(btree::Key key) const;

  nam::Cluster& cluster_;
  IndexConfig config_;
  double buckets_per_key_;
  uint64_t buckets_per_server_ = 0;
  std::vector<uint64_t> base_offsets_;  // bucket array base per server
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_HASH_INDEX_H_
