// The ledger's fixed experiment shape: the four B-link designs, the four
// workloads, and how one design is deployed and bulk-loaded.
#ifndef PERFBENCH_DESIGNS_H_
#define PERFBENCH_DESIGNS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "btree/types.h"
#include "common/units.h"
#include "index/index.h"
#include "index/inspector.h"
#include "index/traversal.h"
#include "nam/cluster.h"
#include "ycsb/workload.h"

namespace perfbench {

using namespace namtree;

/// Calibration scale of EXPERIMENTS.md and the paper's closed loop (§6.1).
constexpr uint64_t kNumKeys = 1'000'000;
constexpr uint32_t kMemoryServers = 4;
constexpr uint32_t kClients = 240;

enum class Design {
  kCg,      ///< Design 1: coarse-grained, two-sided
  kCg1s,    ///< Design 4: coarse-grained, one-sided
  kFg,      ///< Design 2: fine-grained, one-sided
  kHybrid,  ///< Design 3: hybrid
};

constexpr std::array<Design, 4> kDesigns = {Design::kCg, Design::kCg1s,
                                            Design::kFg, Design::kHybrid};

/// Short metric-name suffix: "cg", "cg1s", "fg", "hybrid".
const char* DesignName(Design design);

/// One named workload: the YCSB mix, key distribution and deployment knobs,
/// plus each design's warmup and slice length.
struct Workload {
  std::string_view name;
  ycsb::WorkloadMix mix;
  ycsb::RequestDistribution dist = ycsb::RequestDistribution::kUniform;
  /// Paper §6.1 attribute-value skew: 80/12/5/3 of the data per server.
  bool skewed_placement = false;
  /// Per-client cache (covering every inner page) plus speculative descent.
  bool cached = false;
  /// Virtual warmup and measurement slice of each design, in kDesigns
  /// order. Each measured run is one warmup followed by `--seconds` slices.
  struct Timing {
    SimTime warmup = 0;
    SimTime slice = 0;
  };
  std::array<Timing, 4> timing{};

  const Timing& TimingFor(Design design) const {
    return timing[static_cast<size_t>(design)];
  }
};

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(std::string_view name);

/// Host CPU seconds spent constructing one deployment.
struct SetupCost {
  double cluster_s = 0;    ///< Cluster constructor: regions allocated, zeroed
  double bulk_load_s = 0;  ///< index constructor + BulkLoad
};

/// One design deployed on its own cluster and bulk-loaded.
struct Deployment {
  Design design = Design::kCg;
  std::unique_ptr<nam::Cluster> cluster;
  std::unique_ptr<index::DistributedIndex> index;
};

/// Builds a fresh cluster for `design` and bulk-loads `data` into it.
/// Exits the process with code 2 when the bulk load fails.
Deployment Deploy(Design design, const Workload& workload,
                  std::span<const btree::KV> data, SetupCost* cost = nullptr);

/// Structural check of the deployed index (IndexInspector).
index::IndexInspector::Report Inspect(Deployment& deployment);

/// Per-index cache statistics; all zero for the uncached coarse-grained
/// design.
index::TraversalEngine::CacheStats CacheStatsOf(const Deployment& deployment);

/// Thread CPU time (user + sys) of the calling thread, in seconds.
double ThreadCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_DESIGNS_H_
