// Verb accounting for doorbell-batched write paths (Fabric::PostChain): how
// many signaled verbs, unsignaled chain members and doorbells a
// fine-grained insert costs, and the Figure-12-style insert throughput of
// the chained write paths. `--json <path>` additionally writes the
// machine-readable report the CI smoke-bench reproduces (BENCH_pr3.json).
// The retired unchained WRITE+FAA protocol measured 13.0 signaled verbs per
// insert and 457.8K workload-D ops/s against these defaults
// (docs/batching.md §5).

#include <cstdio>

#include "bench_common.h"
#include "rdma/fabric.h"
#include "sim/task.h"

using namtree::bench::DesignKind;
using namtree::bench::ExperimentConfig;
using namtree::bench::JsonReport;
using namtree::bench::MakeExperiment;
using namtree::bench::Num;
using namtree::bench::PrintRow;

namespace {

// Right-edge appends: every insert lands on the rightmost leaf, so the run
// is split-heavy — the workload shape the chained split publication
// (RemoteOps::WriteUnlockPage with a sibling) is built for.
// namtree-lint: safe-coro-ref(referents live in RunVerbPhase's frame, which blocks on simulator.Run() until this task finishes)
namtree::sim::Task<> InsertLoop(namtree::index::DistributedIndex& index,
                                namtree::nam::ClientContext& ctx,
                                namtree::btree::Key first_key,
                                uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    (void)co_await index.Insert(ctx, first_key + i * namtree::ycsb::kKeyStride,
                                i);
  }
}

struct VerbPhaseResult {
  double signaled_per_op = 0;
  double unsignaled_per_op = 0;
  double doorbells_per_op = 0;
};

/// Single-client sequential inserts against a fine-grained index with the
/// inner-node cache warm, counting fabric-level verbs per insert. The small
/// page size keeps leaves shallow so splits — where chaining saves the
/// most — happen every few inserts, as in the paper's insert-heavy tail.
VerbPhaseResult RunVerbPhase(uint64_t keys, uint64_t inserts,
                             uint32_t page_size, uint32_t cache_pages,
                             uint32_t head_interval) {
  ExperimentConfig config;
  config.design = DesignKind::kFine;
  config.num_keys = keys;
  config.page_size = page_size;
  config.head_node_interval = head_interval;
  config.client_cache_pages = cache_pages;
  config.client_cache_ttl = 0;  // NodeCache treats 0 as no expiry
  namtree::bench::Experiment exp = MakeExperiment(config);
  namtree::rdma::Fabric& fabric = exp.cluster->fabric();
  namtree::sim::Simulator& simulator = exp.cluster->simulator();
  fabric.SetNumClients(1);
  namtree::nam::ClientContext ctx(0, fabric, exp.index->page_size(), 7);

  // Warm the traversal cache (and take the first splits) off the books.
  const namtree::btree::Key edge = keys * namtree::ycsb::kKeyStride;
  const uint64_t warmup = inserts / 4 + 1;
  namtree::sim::Spawn(simulator, InsertLoop(*exp.index, ctx, edge, warmup));
  simulator.Run();
  fabric.ResetStats();

  namtree::sim::Spawn(
      simulator,
      InsertLoop(*exp.index, ctx,
                 edge + warmup * namtree::ycsb::kKeyStride, inserts));
  simulator.Run();

  VerbPhaseResult r;
  const double n = static_cast<double>(inserts);
  r.signaled_per_op = static_cast<double>(fabric.metrics().Value("fabric.signaled_verbs")) / n;
  r.unsignaled_per_op = static_cast<double>(fabric.metrics().Value("fabric.unsignaled_verbs")) / n;
  r.doorbells_per_op = static_cast<double>(fabric.metrics().Value("fabric.doorbells")) / n;
  return r;
}

/// Figure-12-style closed-loop insert workload (D: 50% inserts) on the
/// fine-grained design at paper page size.
double RunThroughputPhase(uint64_t keys, uint32_t clients) {
  ExperimentConfig config;
  config.design = DesignKind::kFine;
  config.num_keys = keys;
  namtree::bench::Experiment exp = MakeExperiment(config);
  namtree::ycsb::RunConfig run;
  run.num_clients = clients;
  run.mix = namtree::ycsb::WorkloadD();
  run.duration = namtree::bench::DurationFor(run.mix, keys, clients);
  run.warmup = run.duration / 10;
  return exp.Run(run).ops_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
  namtree::ArgParser args(argc, argv);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 20000));
  const uint64_t inserts =
      static_cast<uint64_t>(args.GetInt("inserts", 4000));
  // Verb-phase defaults: small pages make the append run split-heavy
  // (where a chain rides 3 writes on 1 signaled completion) and the warm
  // A.4 inner-node cache keeps traversal reads from diluting the count.
  const uint32_t page_size =
      static_cast<uint32_t>(args.GetInt("page", 128));
  const uint32_t cache_pages =
      static_cast<uint32_t>(args.GetInt("cache", 1 << 16));
  const uint32_t head_interval =
      static_cast<uint32_t>(args.GetInt("head", 16));
  const uint32_t clients =
      static_cast<uint32_t>(args.GetInt("clients", 120));

  namtree::bench::PrintPreamble(
      "Ablation: verb chains",
      "Doorbell-batched write+unlock and split chains (PostChain)",
      Num(static_cast<double>(keys)) + " keys; verb phase: sequential FG "
          "inserts, page=" + Num(page_size) + ", warm inner-node cache; "
          "throughput phase: workload D, " + Num(clients) + " clients, "
          "page=1024");

  std::printf("\n# subplot: signaled_verbs_per_insert\n");
  PrintRow({"mode", "signaled_per_op", "unsignaled_per_op",
            "doorbells_per_op"});
  const VerbPhaseResult chained =
      RunVerbPhase(keys, inserts, page_size, cache_pages, head_interval);
  PrintRow({"chained", Num(chained.signaled_per_op),
            Num(chained.unsignaled_per_op), Num(chained.doorbells_per_op)});

  std::printf("\n# subplot: workload_d_throughput\n");
  PrintRow({"mode", "ops_per_s"});
  const double tput_chained = RunThroughputPhase(keys, clients);
  PrintRow({"chained", Num(tput_chained)});

  JsonReport report;
  report.Set("bench", std::string("ablate_verb_chains"));
  report.Set("config.keys", keys);
  report.Set("config.inserts", inserts);
  report.Set("config.verb_phase_page_size", static_cast<uint64_t>(page_size));
  report.Set("config.verb_phase_cache_pages",
             static_cast<uint64_t>(cache_pages));
  report.Set("config.throughput_clients", static_cast<uint64_t>(clients));
  report.Set("chained.signaled_per_op", chained.signaled_per_op);
  report.Set("chained.unsignaled_per_op", chained.unsignaled_per_op);
  report.Set("chained.doorbells_per_op", chained.doorbells_per_op);
  report.Set("chained.workload_d_ops_per_s", tput_chained);
  if (!namtree::bench::MaybeWriteJson(args, report)) return 1;
  return 0;
}
