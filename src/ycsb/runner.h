#ifndef NAMTREE_YCSB_RUNNER_H_
#define NAMTREE_YCSB_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "index/index.h"
#include "nam/cluster.h"
#include "ycsb/workload.h"

namespace namtree::ycsb {

/// Configuration of one closed-loop benchmark run (paper §6.1: every client
/// waits for its operation to finish before issuing the next one).
struct RunConfig {
  uint32_t num_clients = 40;
  /// Virtual warmup time before measurement starts.
  SimTime warmup = 2 * kMillisecond;
  /// Virtual measurement window.
  SimTime duration = 50 * kMillisecond;
  WorkloadMix mix = WorkloadA();
  RequestDistribution dist = RequestDistribution::kUniform;
  double zipf_theta = 0.99;
  uint64_t seed = 42;
  /// Issue one GarbageCollect pass from client 0 every `gc_interval`
  /// virtual ns (0 = no GC during the run).
  SimTime gc_interval = 0;
  /// Closed-loop lanes per client. 1 (the default) is the paper's closed
  /// loop: each client waits for its operation before issuing the next.
  /// Depth d > 1 runs d lanes per client on every design; each lane is its
  /// own closed loop, so d independent operations overlap per client.
  uint32_t pipeline_depth = 1;
  /// Gather up to this many consecutive point lookups per lane into one
  /// Index::MultiGet call (0/1 = every op goes through its own entry point).
  /// Any other operation ends the gather and runs by itself after the
  /// batch, preserving the lane's issue order.
  uint32_t multiget_batch = 1;
  /// Per-op verb tracing (docs/observability.md): enable every client's
  /// OpTrace and run each closed-loop operation under an OpSpan, recording
  /// the verbs it issued (kind, target server, chain id, virtual-time
  /// window). Off (default) = no tracing work beyond one branch per verb,
  /// so virtual time and every counter stay bit-identical.
  bool trace_ops = false;
  /// Completed-span ring capacity per client (newest spans win).
  size_t trace_ring = metrics::OpTrace::kDefaultRingCapacity;
  /// Slowest spans retained per op label per client — the top-K stand-in
  /// for the slowest percentile; dumped into RunResult::trace_outliers.
  size_t trace_outliers = metrics::OpTrace::kDefaultOutliersPerOp;
};

/// Aggregated measurement of one run. Counter-valued results live in
/// `counters`, the registry window of the run (metrics families `client.*`,
/// `fabric.*`, `ycsb.*` — see docs/observability.md); the historical field
/// names are kept as accessor views over that window. Derived rates,
/// latency histograms, and byte totals are materialized as before.
struct RunResult {
  double seconds = 0;          ///< window length in virtual seconds
  double ops_per_sec = 0;
  Histogram latency;           ///< per-op latency (ns), completed in window
  uint64_t server_bytes = 0;   ///< memory-server tx+rx bytes in window
  double gb_per_sec = 0;       ///< server_bytes / window (decimal GB)
  std::vector<uint64_t> per_server_bytes;

  /// The registry window of this run: Delta between the registry at run
  /// start and at run end. Every counter the run moved — per-client
  /// protocol counters, fabric verb counters, per-{op, status class} op
  /// counts — reads from here, and bench --json emits it generically.
  metrics::Delta counters;

  /// Verb-by-verb dump of the slowest spans per op type, one block per
  /// client (empty unless RunConfig::trace_ops).
  std::string trace_outliers;

  // ---- Counter views over `counters` --------------------------------------
  uint64_t ops() const { return counters.Value("ycsb.ops"); }
  uint64_t failed_ops() const {
    return ops() - counters.Value("ycsb.ops", "class",
                                  StatusClassName(StatusClass::kOk));
  }
  uint64_t round_trips() const { return counters.Value("client.round_trips"); }
  uint64_t restarts() const { return counters.Value("client.restarts"); }
  uint64_t lock_waits() const { return counters.Value("client.lock_waits"); }
  /// Exponential-backoff sleeps while spinning on a remote lock.
  uint64_t backoff_rounds() const {
    return counters.Value("client.backoff_rounds");
  }
  /// Orphaned locks reclaimed from dead holders.
  uint64_t lock_steals() const { return counters.Value("client.lock_steals"); }
  /// Clients crash-injected away during the run.
  uint64_t dead_clients() const { return counters.Value("ycsb.dead_clients"); }
  /// Speculative descents fully served by the one-RTT batch.
  uint64_t speculative_hits() const {
    return counters.Value("client.speculative_hits");
  }
  /// Speculative descents that fell back to the level-by-level loop.
  uint64_t mispredicts() const { return counters.Value("client.mispredicts"); }

  /// Failed operations bucketed by status class (the one status -> class
  /// mapping is common/status.h StatusClassOf); `failed_ops() == total()`.
  struct FailureBreakdown {
    uint64_t not_found = 0;
    uint64_t unavailable = 0;
    uint64_t timed_out = 0;
    uint64_t out_of_memory = 0;
    uint64_t aborted = 0;
    uint64_t other = 0;

    uint64_t total() const {
      return not_found + unavailable + timed_out + out_of_memory + aborted +
             other;
    }
  };
  /// View over the `ycsb.ops` family's non-ok status classes.
  FailureBreakdown failures() const;

  /// Per-operation-type breakdown (indexed by OpType).
  struct PerType {
    // namtree-lint: metric-ok(materialized windowed copy of ycsb.ops{op}; the live counter is the registry cell)
    uint64_t count = 0;
    Histogram latency;
  };
  std::vector<PerType> per_type = std::vector<PerType>(kNumOpTypes);
};

/// Runs `config.mix` against `index` in virtual time with
/// `config.num_clients` clients of `config.pipeline_depth` closed-loop lanes
/// each, and returns the measured aggregate.
/// `num_keys` must match the bulk-loaded dataset (GenerateDataset).
RunResult RunWorkload(nam::Cluster& cluster, index::DistributedIndex& index,
                      uint64_t num_keys, const RunConfig& config);

}  // namespace namtree::ycsb

#endif  // NAMTREE_YCSB_RUNNER_H_
