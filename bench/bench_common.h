#ifndef NAMTREE_BENCH_BENCH_COMMON_H_
#define NAMTREE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/arg_parser.h"
#include "common/metrics.h"
#include "index/index.h"
#include "nam/cluster.h"
#include "ycsb/runner.h"
#include "ycsb/workload.h"

namespace namtree::bench {

/// Which of the paper's three designs to instantiate.
enum class DesignKind {
  kCoarse,          ///< Design 1, §3: coarse-grained / two-sided
  kFine,            ///< Design 2, §4: fine-grained / one-sided
  kHybrid,          ///< Design 3, §5
  kCoarseOneSided,  ///< Design 4: the §2.2 matrix corner the paper skips
};

const char* DesignLabel(DesignKind kind);

/// One fully assembled experiment: simulator + fabric + memory servers +
/// bulk-loaded index.
struct Experiment {
  std::unique_ptr<nam::Cluster> cluster;
  std::unique_ptr<index::DistributedIndex> index;
  uint64_t num_keys = 0;

  ycsb::RunResult Run(const ycsb::RunConfig& config) {
    return ycsb::RunWorkload(*cluster, *index, num_keys, config);
  }
};

/// Knobs of one experiment cell. Defaults reproduce the paper's §6.1 setup
/// (4 memory servers on 2 machines, range partitioning, 1KB pages) at the
/// bench default scale.
struct ExperimentConfig {
  DesignKind design = DesignKind::kCoarse;
  uint32_t num_memory_servers = 4;
  uint64_t num_keys = 1'000'000;
  /// Attribute-value skew: assign 80% of the data to memory server 0 and
  /// spread the rest (paper: 80/12/5/3 on 4 servers).
  bool skewed_data = false;
  index::PartitionKind partition = index::PartitionKind::kRange;
  uint32_t page_size = 1024;
  uint32_t head_node_interval = 16;
  bool colocate = false;
  uint64_t region_bytes = 0;  ///< 0 = sized automatically from num_keys
  uint32_t workers_per_server = 0;  ///< 0 = FabricConfig default
  /// Per-client inner-node cache (IndexConfig::client_cache_pages / _ttl).
  uint32_t client_cache_pages = 0;
  SimTime client_cache_ttl = 0;
  /// One-RTT speculative descent (IndexConfig::speculative_descent;
  /// one-sided designs, needs client_cache_pages > 0).
  bool speculative_descent = false;
};

/// The paper's §6.1 skewed placement, generalised to S servers:
/// {0.80, 0.12, 0.05, 0.03} for S=4; for other S, 80% on server 0 and the
/// remainder split geometrically.
std::vector<double> SkewWeights(uint32_t servers);

/// Builds the cluster and bulk-loads the chosen design over the standard
/// YCSB dataset (GenerateDataset). Aborts on failure.
Experiment MakeExperiment(const ExperimentConfig& config);

/// The client counts of the paper's load sweeps (Figures 7-9, 12-14),
/// scaled down by `scale` (>=1) for quick runs.
std::vector<uint32_t> ClientSweep(int64_t scale = 1);

/// Picks a virtual measurement window long enough for every closed-loop
/// client to complete a few operations at the workload's per-operation cost
/// and the given data scale.
SimTime DurationFor(const ycsb::WorkloadMix& mix, uint64_t num_keys,
                    uint32_t clients);

/// What a load sweep reports per cell.
enum class SweepMetric {
  kThroughput,  ///< lookups/s (Figures 7, 8, 12)
  kBandwidth,   ///< aggregated memory-server GB/s (Figure 9)
  kLatency,     ///< mean per-op latency in seconds (Figures 13, 14)
};

/// Runs the §6.1 load sweep — workloads A and B(0.001/0.01/0.1), client
/// counts 20..240, all three designs — and prints one table per subplot.
/// Reused by Figures 7/8 (throughput), 9 (network utilisation) and 13/14
/// (latency). Flags: --keys, --scale (thins the client sweep), --designs.
void RunLoadSweep(const ArgParser& args, const std::string& figure,
                  const std::string& title, bool skewed_data,
                  SweepMetric metric);

/// TSV output helpers: every figure bench prints `# figure`, `# note`
/// comment lines, then one header row and data rows.
void PrintPreamble(const std::string& figure, const std::string& title,
                   const std::string& note);
void PrintRow(const std::vector<std::string>& cells);
std::string Num(double v);

/// Insertion-ordered JSON object for machine-readable bench output.
/// Dotted keys nest: Set("chained.signaled_per_op", v) serialises as
/// {"chained": {"signaled_per_op": v}}; top-level and nested keys keep
/// first-insertion order.
class JsonReport {
 public:
  void Set(const std::string& key, double value);
  void Set(const std::string& key, uint64_t value);
  void Set(const std::string& key, const std::string& value);

  std::string ToString() const;

  /// Writes ToString() (plus a trailing newline) to `path`. Returns false
  /// with a stderr note on I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  /// Dotted key paths mapped to pre-rendered JSON literals, in insertion
  /// order.
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Emits every cell of a run's registry window into `report`, generically:
/// no per-counter code, whatever families the run touched appear. Keys are
/// "<prefix>.<family>" for unlabeled cells and
/// "<prefix>.<family>.<k>=<v>[,<k>=<v>...]" for labeled ones (label order =
/// registration order); histogram cells fan out into ".count", ".mean_ns"
/// and ".p99_ns" leaves. Families whose window moved nothing still appear
/// (value 0), so the emitted key set is a stable schema for CI to diff.
void EmitMetrics(const metrics::Delta& counters, JsonReport& report,
                 const std::string& prefix = "metrics");

/// Writes `report` to the file named by `--json <path>` when the flag is
/// present (the standard machine-readable side channel of the TSV benches).
/// Returns false only when the flag was given and the write failed.
bool MaybeWriteJson(const ArgParser& args, const JsonReport& report);

}  // namespace namtree::bench

#endif  // NAMTREE_BENCH_BENCH_COMMON_H_
