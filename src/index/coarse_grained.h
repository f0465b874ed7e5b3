#ifndef NAMTREE_INDEX_COARSE_GRAINED_H_
#define NAMTREE_INDEX_COARSE_GRAINED_H_

#include <memory>
#include <vector>

#include "index/index.h"
#include "index/partition.h"
#include "index/server_tree.h"
#include "nam/cluster.h"

namespace namtree::index {

/// Design 1 (paper §3): coarse-grained distribution + two-sided access.
///
/// The key space is partitioned (range- or hash-based) over the memory
/// servers; each server builds a local B-link tree over its keys and
/// executes index operations itself when compute servers ship them over as
/// RPCs (SEND/RECV pairs into a shared receive queue). Concurrency control
/// on the server is optimistic lock coupling (Listing 1/3).
class CoarseGrainedIndex : public DistributedIndex {
 public:
  /// RPC opcodes of the coarse-grained protocol.
  enum Op : uint16_t {
    kLookup = 1,
    /// [arg0, arg1) range; the response carries the count in arg0 and the
    /// rows as [key, value] pairs. arg2 = 1 asks for the count only: the
    /// rows are left out of the reply but still charged as its payload.
    kScan = 2,
    kInsert = 3,
    kDelete = 4,
    kGc = 5,
    kUpdate = 6,
    kLookupAll = 7,
    /// Batched lookup frame (MultiGet): the request payload carries 3 words
    /// per key [kLookup, key, 0], of which the server reads only the key;
    /// the response carries 2 words per key [status, value]. The whole
    /// frame pays one RequestOverhead.
    kBatch = 8,
  };

  CoarseGrainedIndex(nam::Cluster& cluster, IndexConfig config);

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

  /// Batched lookups: the keys are grouped by home server into one kBatch
  /// SEND per server, so n same-server lookups pay one RPC round-trip and
  /// one server dispatch instead of n.
  sim::Task<void> MultiGet(nam::ClientContext& ctx,
                           std::span<const btree::Key> keys,
                           LookupResult* results) override;

  std::string name() const override { return "coarse-grained"; }
  uint32_t page_size() const override { return config_.page_size; }

  const Partitioner& partitioner() const { return partitioner_; }
  ServerTree& tree(uint32_t server) { return *trees_[server]; }

 private:
  sim::Task<> Handle(nam::MemoryServer& server, rdma::IncomingRpc rpc);

  nam::Cluster& cluster_;
  IndexConfig config_;
  Partitioner partitioner_;
  uint16_t rpc_service_;
  std::vector<std::unique_ptr<ServerTree>> trees_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_COARSE_GRAINED_H_
