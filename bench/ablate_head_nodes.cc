// Ablation for the §4.3 head-node optimisation: fine-grained range-scan
// throughput and per-query round trips as a function of the head-node
// interval (0 = disabled), plus the staleness penalty after splits and the
// recovery after an epoch rebuild.
//
// `--json <path>` writes the machine-readable report CI reruns against the
// committed BENCH_head_nodes.json: every cell drives head-node batch READs,
// and the staleness cells add leaf splits and an epoch head rebuild.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "index/fine_grained.h"
#include "nam/cluster.h"

using namtree::bench::DesignKind;
using namtree::bench::ExperimentConfig;
using namtree::bench::JsonReport;
using namtree::bench::Num;
using namtree::bench::PrintRow;

namespace {

namtree::ycsb::RunResult RunScan(namtree::bench::Experiment& exp,
                                 uint64_t keys) {
  namtree::ycsb::RunConfig run;
  run.num_clients = 80;
  run.mix = namtree::ycsb::WorkloadB(0.01);
  run.duration = namtree::bench::DurationFor(run.mix, keys, run.num_clients);
  run.warmup = run.duration / 10;
  return exp.Run(run);
}

double RoundTripsPerOp(const namtree::ycsb::RunResult& result) {
  return static_cast<double>(result.round_trips()) /
         std::max<uint64_t>(1, result.ops());
}

/// Prints one TSV row and records the same cell under `cell` in `report`.
void Report(JsonReport& report, const std::string& cell,
            const std::string& label,
            const namtree::ycsb::RunResult& result) {
  PrintRow({label, Num(result.ops_per_sec), Num(RoundTripsPerOp(result))});
  report.Set(cell + ".ops_per_s", result.ops_per_sec);
  report.Set(cell + ".round_trips_per_op", RoundTripsPerOp(result));
  report.Set(cell + ".ops", result.ops());
  report.Set(cell + ".failed_ops", result.failed_ops());
  report.Set(cell + ".doorbells", result.counters.Value("fabric.doorbells"));
  report.Set(cell + ".unsignaled_verbs",
             result.counters.Value("fabric.unsignaled_verbs"));
  // Head-node images read in place vs copied out by a write landing first.
  report.Set(cell + ".inplace_served",
             result.counters.Value("fabric.inplace_images", "outcome",
                                   "served"));
  report.Set(cell + ".inplace_copied",
             result.counters.Value("fabric.inplace_images", "outcome",
                                   "copied"));
}

}  // namespace

int main(int argc, char** argv) {
  namtree::ArgParser args(argc, argv);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 500000));

  namtree::bench::PrintPreamble(
      "Ablation: head nodes", "Fine-grained range scans (sel=0.01)",
      Num(static_cast<double>(keys)) + " keys, 80 clients");
  PrintRow({"head_interval", "lookups_per_s", "round_trips_per_op"});
  JsonReport report;
  report.Set("bench", std::string("ablate_head_nodes"));
  report.Set("config.keys", keys);
  report.Set("config.clients", static_cast<uint64_t>(80));

  for (uint32_t interval : {0u, 4u, 8u, 16u, 32u, 64u}) {
    ExperimentConfig config;
    config.design = DesignKind::kFine;
    config.num_keys = keys;
    config.head_node_interval = interval;
    auto exp = namtree::bench::MakeExperiment(config);
    Report(report, "interval_" + std::to_string(interval), Num(interval),
           RunScan(exp, keys));
  }

  // Staleness: splits invalidate head groupings; the epoch rebuild restores
  // the prefetch efficiency.
  std::printf("\n# staleness: scans after heavy inserts vs after rebuild\n");
  PrintRow({"phase", "lookups_per_s", "round_trips_per_op"});
  {
    ExperimentConfig config;
    config.design = DesignKind::kFine;
    config.num_keys = keys;
    config.head_node_interval = 16;
    auto exp = namtree::bench::MakeExperiment(config);

    Report(report, "staleness.fresh", "fresh", RunScan(exp, keys));

    // Insert burst (workload D) to split many leaves.
    namtree::ycsb::RunConfig churn;
    churn.num_clients = 80;
    churn.mix = namtree::ycsb::WorkloadD();
    churn.duration = 40 * namtree::kMillisecond;
    churn.warmup = namtree::kMillisecond;
    (void)exp.Run(churn);

    Report(report, "staleness.after_inserts", "after_inserts",
           RunScan(exp, keys));

    // One GC pass (compaction + head rebuild) from a compute client.
    namtree::ycsb::RunConfig gc;
    gc.num_clients = 1;
    gc.mix = namtree::ycsb::WorkloadA();
    gc.duration = 60 * namtree::kMillisecond;
    gc.warmup = 0;
    gc.gc_interval = 5 * namtree::kMillisecond;
    (void)exp.Run(gc);

    Report(report, "staleness.after_rebuild", "after_rebuild",
           RunScan(exp, keys));
  }
  if (!namtree::bench::MaybeWriteJson(args, report)) return 1;
  return 0;
}
