#ifndef NAMTREE_NAM_CLUSTER_H_
#define NAMTREE_NAM_CLUSTER_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "nam/memory_server.h"
#include "rdma/fabric.h"
#include "rdma/fabric_config.h"
#include "sim/simulator.h"

namespace namtree::nam {

/// A complete simulated NAM deployment: the event simulator, the RDMA
/// fabric, and `num_memory_servers` memory servers with registered regions.
/// Compute clients are plain coroutines identified by a client id; create
/// a `ClientContext` per client.
class Cluster {
 public:
  Cluster(const rdma::FabricConfig& config, uint64_t region_bytes_per_server)
      : fabric_(simulator_, config) {
    for (uint32_t s = 0; s < config.num_memory_servers; ++s) {
      memory_servers_.push_back(
          std::make_unique<MemoryServer>(fabric_, s, region_bytes_per_server));
    }
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  rdma::Fabric& fabric() { return fabric_; }
  const rdma::FabricConfig& config() const { return fabric_.config(); }

  uint32_t num_memory_servers() const {
    return static_cast<uint32_t>(memory_servers_.size());
  }
  MemoryServer& memory_server(uint32_t s) { return *memory_servers_[s]; }

  /// Hands out a cluster-unique RPC service id (memory servers route
  /// requests to the matching registered handler, so several RPC-based
  /// indexes can share the cluster).
  uint16_t AllocateRpcService() { return next_rpc_service_++; }

  /// Hands out a cluster-unique catalog slot (per-server 8-byte metadata
  /// word, e.g. a root pointer). Aborts when the catalog is full.
  uint32_t AllocateCatalogSlot() {
    const uint32_t slot = next_catalog_slot_++;
    assert(slot < rdma::MemoryRegion::kCatalogSlots && "catalog exhausted");
    return slot;
  }

 private:
  sim::Simulator simulator_;
  rdma::Fabric fabric_;
  std::vector<std::unique_ptr<MemoryServer>> memory_servers_;
  uint16_t next_rpc_service_ = 1;  // 0 = the single-service default
  uint32_t next_catalog_slot_ = 0;
};

/// Reusable storage for one head-node prefetch batch (LeafLevel::ScanChain):
/// per member a READ descriptor, an in-place image, and a page slot that
/// receives the image when a write copies it out, or a re-read. It grows to
/// the largest batch seen and never zero-fills. A client runs one scan at a
/// time, and every image is released before the next batch begins.
class ScanBatch {
 public:
  ScanBatch(rdma::Fabric& fabric, uint32_t page_size)
      : fabric_(&fabric), page_size_(page_size) {}
  ScanBatch(const ScanBatch&) = delete;
  ScanBatch& operator=(const ScanBatch&) = delete;
  /// A suspended scan may still hold pins when its client goes away.
  ~ScanBatch() { Release(); }

  /// Releases every image of the batch begun by Begin when it goes out of
  /// scope, on whichever path the consumer leaves.
  class [[nodiscard]] Lease {
   public:
    explicit Lease(ScanBatch& batch) : batch_(&batch) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { batch_->Release(); }

   private:
    ScanBatch* batch_;
  };

  /// Sizes the storage for an `n`-member batch.
  Lease Begin(uint32_t n) {
    assert(size_ == 0 && "previous batch not released");
    if (n > capacity_) {
      reads_.resize(n);
      images_ = std::make_unique<rdma::InPlaceImage[]>(n);
      pages_ = std::make_unique_for_overwrite<uint8_t[]>(
          static_cast<size_t>(n) * page_size_);
      capacity_ = n;
    }
    size_ = n;
    return Lease(*this);
  }

  std::span<rdma::Fabric::ChainOp> reads() { return {reads_.data(), size_}; }
  rdma::InPlaceImage& image(uint32_t k) { return images_[k]; }
  uint8_t* page(uint32_t k) {
    return pages_.get() + static_cast<size_t>(k) * page_size_;
  }

  void Release() {
    fabric_->ReleaseImages({images_.get(), size_});
    size_ = 0;
  }

 private:
  rdma::Fabric* fabric_;
  uint32_t page_size_;
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
  std::vector<rdma::Fabric::ChainOp> reads_;
  std::unique_ptr<rdma::InPlaceImage[]> images_;
  std::unique_ptr<uint8_t[]> pages_;
};

/// State a layer above keeps per context (the speculative descent's path
/// and batch storage): made by its first user and reused by every later
/// operation of the context. Each pipeline lane of a client has its own
/// context, so two operations in flight never share it.
class ContextScratch {
 public:
  ContextScratch() = default;
  ContextScratch(const ContextScratch&) = delete;
  ContextScratch& operator=(const ContextScratch&) = delete;
  virtual ~ContextScratch() = default;
};

/// Per-client state for index operations issued from a compute server:
/// scratch page buffers for one-sided reads, a private RNG, and verb/latency
/// accounting.
class ClientContext {
 public:
  ClientContext(uint32_t client_id, rdma::Fabric& fabric, uint32_t page_size,
                uint64_t seed = 42)
      : client_id_(client_id),
        fabric_(&fabric),
        rng_(seed ^ (0x5851F42D4C957F2Dull * (client_id + 1))),
        page_buf_a_(page_size),
        page_buf_b_(page_size),
        scan_batch_(fabric, page_size),
        trace_(client_id) {
    metrics::MetricRegistry& registry = fabric.metrics();
    const metrics::LabelSet labels = {{"client", std::to_string(client_id)}};
    registry.RegisterCounter(round_trips, "client.round_trips", labels,
                             "network round trips issued");
    registry.RegisterCounter(restarts, "client.restarts", labels,
                             "optimistic protocol restarts");
    registry.RegisterCounter(lock_waits, "client.lock_waits", labels,
                             "remote spinlock re-reads");
    registry.RegisterCounter(backoff_rounds, "client.backoff_rounds", labels,
                             "exponential-backoff sleeps while spinning");
    registry.RegisterCounter(lock_steals, "client.lock_steals", labels,
                             "orphaned locks reclaimed from dead holders");
    registry.RegisterCounter(speculative_hits, "client.speculative_hits",
                             labels, "speculative descents fully validated");
    registry.RegisterCounter(mispredicts, "client.mispredicts", labels,
                             "speculative descents that fell back");
    // Retry accounting is labeled by retry *domain*, not by client: every
    // client's handle feeds the same {domain=...} cell, so the registry sum
    // is the fleet-wide figure the flaky-net acceptance gate reads
    // (`retry.exhausted == 0`). The rpc domain lives in the Fabric itself.
    registry.RegisterCounter(lock_retry_attempts, "retry.attempts",
                             {{"domain", "lock"}},
                             "retries after a first failed attempt");
    registry.RegisterCounter(lock_retry_exhausted, "retry.exhausted",
                             {{"domain", "lock"}},
                             "retry budgets spent without success");
    registry.RegisterCounter(verb_retry_attempts, "retry.attempts",
                             {{"domain", "verb"}},
                             "retries after a first failed attempt");
    registry.RegisterCounter(verb_retry_exhausted, "retry.exhausted",
                             {{"domain", "verb"}},
                             "retry budgets spent without success");
    registry.RegisterCounter(steal_retry_attempts, "retry.attempts",
                             {{"domain", "steal"}},
                             "retries after a first failed attempt");
    registry.RegisterCounter(steal_retry_exhausted, "retry.exhausted",
                             {{"domain", "steal"}},
                             "retry budgets spent without success");
    registry.RegisterCounter(alloc_leaks, "client.alloc_leaks", labels,
                             "page slots conservatively re-drawn after a "
                             "lost allocation FAA");
    trace_.SetClock([&fabric] { return fabric.simulator().now(); });
  }

  ClientContext(const ClientContext&) = delete;
  ClientContext& operator=(const ClientContext&) = delete;

  uint32_t client_id() const { return client_id_; }
  rdma::Fabric& fabric() { return *fabric_; }
  Rng& rng() { return rng_; }

  uint8_t* page_a() { return page_buf_a_.data(); }
  uint8_t* page_b() { return page_buf_b_.data(); }
  /// Head-node prefetch storage, reused by every scan of this client.
  ScanBatch& scan_batch() { return scan_batch_; }
  uint32_t page_size() const {
    return static_cast<uint32_t>(page_buf_a_.size());
  }

  /// Counted RPC: the one place client code pays the round-trip toll for a
  /// two-sided call, so coalesced frames and retried sends cannot be
  /// miscounted by hand-bumped sites. Every caller awaits the task
  /// immediately, so the bump matches the historical
  /// `round_trips++; co_await fabric().Call(...)` pattern bit-for-bit.
  sim::Task<rdma::RpcResponse> Call(uint32_t server,
                                    rdma::RpcRequest request) {
    round_trips.Inc();
    const SimTime posted = trace_.in_span() ? fabric_->simulator().now() : 0;
    rdma::RpcResponse response =
        co_await fabric_->Call(client_id_, server, std::move(request));
    trace_.Event(metrics::TraceVerb::kRpc, server, /*chain=*/0, posted);
    co_return response;
  }

  /// This client's op trace (off until OpTrace::Enable). The counted-verb
  /// helpers (RemoteOps, Call) record verb events here; the YCSB runner and
  /// index entry points open the spans.
  metrics::OpTrace& trace() { return trace_; }

  // ---- Per-client accounting ---------------------------------------------
  // Registered `client.*` counter families labeled {client}; the handles
  // own the storage, so the hot-path increment is still a plain uint64_t
  // bump and per-context reads keep their historical values. Mutate only
  // through Inc()/Reset() — the consolidated counting paths (RemoteOps,
  // Call) do this for every verb.
  metrics::Counter round_trips;     ///< network round trips issued
  metrics::Counter restarts;        ///< optimistic protocol restarts
  metrics::Counter lock_waits;      ///< remote spinlock re-reads
  metrics::Counter backoff_rounds;  ///< backoff sleeps while spinning
  metrics::Counter lock_steals;     ///< orphaned locks reclaimed from dead
  /// Speculative descents (TraversalEngine::Options::speculative_descent)
  /// whose predicted root->leaf path validated without a fallback read.
  metrics::Counter speculative_hits;
  /// Speculative descents where validation had to fall back to the
  /// level-by-level loop (stale prediction, locked or dropped batch slot).
  metrics::Counter mispredicts;
  // Unified retry families ({domain=lock|verb|steal}; {domain=rpc} is owned
  // by the Fabric). `attempts` counts re-tries (first tries are free),
  // `exhausted` counts budgets that ran dry.
  metrics::Counter lock_retry_attempts;
  metrics::Counter lock_retry_exhausted;
  metrics::Counter verb_retry_attempts;
  metrics::Counter verb_retry_exhausted;
  metrics::Counter steal_retry_attempts;
  metrics::Counter steal_retry_exhausted;
  /// Allocation-cursor slots abandoned when a lost FAA could not be proven
  /// absent (the cursor moved under concurrency): the conservative re-draw
  /// leaks at most one page-size hole per event.
  metrics::Counter alloc_leaks;

  /// Round-robin cursor for remote page allocation (fine-grained splits
  /// scatter new nodes over all memory servers).
  uint32_t alloc_rr = 0;

  /// Failover lock routes (replicated fabrics only): primary page address
  /// -> the acting-primary replica this client actually locked, recorded
  /// by TryLockPage and consumed by the unlock paths so a release lands on
  /// the server that holds the lock even after further failovers. Empty at
  /// R=1.
  std::unordered_map<uint64_t, uint64_t> lock_routes;

  /// Publication chain storage (index::RemoteOps builds each doorbell
  /// chain here), reused so a warm context posts chains without
  /// allocating.
  std::vector<rdma::Fabric::ChainOp> chain_ops;

  /// Speculative-descent storage (index::TraversalEngine), made on first
  /// use; see ContextScratch.
  std::unique_ptr<ContextScratch> descent_scratch;

 private:
  uint32_t client_id_;
  rdma::Fabric* fabric_;
  Rng rng_;
  std::vector<uint8_t> page_buf_a_;
  std::vector<uint8_t> page_buf_b_;
  ScanBatch scan_batch_;
  metrics::OpTrace trace_;
};

}  // namespace namtree::nam

#endif  // NAMTREE_NAM_CLUSTER_H_
