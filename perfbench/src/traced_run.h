// The ledger's traced run: the same closed loop as ycsb::RunWorkload, with
// every client's OpTrace on and each operation under an OpSpan opened here.
#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

#include <cstdint>

#include "common/histogram.h"
#include "index/index.h"
#include "nam/cluster.h"
#include "ycsb/runner.h"

namespace perfbench {

using namespace namtree;

struct TracedRun {
  /// Operations completed inside the measurement window, and their
  /// latencies; with the same deployment and config these must equal what
  /// the untraced ycsb::RunWorkload reports.
  uint64_t ops = 0;
  Histogram latency;
  /// Host CPU seconds of the run: simulation, span recording, and the
  /// per-span summary below.
  double cpu_s = 0;
  /// Σ over window ops of virtual time covered by the op's verb/RPC
  /// windows, and Σ of their latencies.
  double verb_ns = 0;
  double latency_ns = 0;
  /// Verbs per op over all window ops and over the slowest 1% of them.
  double verbs_per_op = 0;
  double tail_verbs_per_op = 0;
};

/// Runs `config` (closed loop, point/range/insert ops, no pipelining) on a
/// freshly loaded deployment and summarises the recorded spans.
TracedRun RunTraced(nam::Cluster& cluster, index::DistributedIndex& idx,
                    uint64_t num_keys, const ycsb::RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
