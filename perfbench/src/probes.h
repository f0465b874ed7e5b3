// Standalone host-speed probes: each times one layer in isolation with the
// thread CPU clock, outside every end-to-end metric.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include "designs.h"

namespace perfbench {

/// Host ns per WorkloadGenerator::Next draw of `workload`'s mix and key
/// distribution (generator construction excluded).
double ProbeGeneratorNs(const Workload& workload, uint64_t seed);

/// Host ns per event of a bare Simulator::Run over delay loops.
double ProbeBareEventNs();

/// Host ns per one-sided verb of a READ/CAS loop on an idle cluster.
double ProbeVerbNs();

/// Host ns per in-page search (PageView::InnerChildFor on inner pages,
/// LeafLowerBound on the leaf) over root-to-leaf descents of the
/// fine-grained deployment's tree, read straight from its regions.
double ProbePageSearchNs(Deployment& fg, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
