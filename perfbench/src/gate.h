// Correctness gate run after each design's measured phase.
#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstdint>
#include <string>

#include "designs.h"

namespace perfbench {

/// Checks a deployment after a workload ran on it. The dataset is the
/// closed form of ycsb::GenerateDataset(num_keys): key i*8 holds value i.
///   * IndexInspector reports no violations;
///   * `failed_ops` (the run's non-ok operations) is 0;
///   * a seeded sample of point lookups returns value i for key i*8 and,
///     unless the workload inserts, nothing for keys between them;
///   * a seeded sample of range scans returns exactly the preloaded keys of
///     its range (and nothing else unless the workload inserts);
///   * a sweep over the whole key space finds every preloaded key once,
///     with its value.
/// Returns an empty string when every check holds, else the first failure.
/// Runs on the deployment's simulator after the workload has drained.
/// `report`, when non-null, receives the inspector's report.
std::string CheckDeployment(Deployment& deployment, const Workload& workload,
                            uint64_t num_keys, uint64_t seed,
                            uint64_t failed_ops,
                            index::IndexInspector::Report* report = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
