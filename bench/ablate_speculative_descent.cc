// Ablation for the one-RTT lookup fast path: (1) speculative descent —
// round trips per uniform lookup on a height>=3 fine-grained tree whose
// cached inner images are TTL-expired (the cold-path regime the predictor
// targets), speculation off vs on; (2) a pipelined Zipf run whose registry
// window the report emits wholesale (BENCH_pr9.json); (3) batched MultiGet
// — round trips per key for a dense batch, single lookups vs one grouped
// chain walk. `--json <path>` writes the machine-readable report the CI
// smoke-bench gates on (BENCH_pr8.json).

#include <cstdio>

#include "bench_common.h"
#include "index/fine_grained.h"
#include "rdma/audit.h"
#include "rdma/fabric.h"
#include "sim/task.h"

using namtree::bench::DesignKind;
using namtree::bench::ExperimentConfig;
using namtree::bench::JsonReport;
using namtree::bench::MakeExperiment;
using namtree::bench::Num;
using namtree::bench::PrintRow;

namespace {

using namtree::btree::Key;
using namtree::index::LookupResult;

// namtree-lint: safe-coro-ref(referents live in the measuring function's frame, which blocks on simulator.Run() until this task finishes)
namtree::sim::Task<> UniformLookups(namtree::index::DistributedIndex& index,
                                    namtree::nam::ClientContext& ctx,
                                    uint64_t rounds, uint64_t keys,
                                    uint64_t* found) {
  for (uint64_t i = 0; i < rounds; ++i) {
    const Key k = ctx.rng().NextBelow(keys) * namtree::ycsb::kKeyStride;
    const LookupResult r = co_await index.Lookup(ctx, k);
    if (r.found) (*found)++;
  }
}

struct SpecPhaseResult {
  double round_trips_per_op = 0;
  uint64_t speculative_hits = 0;
  uint64_t mispredicts = 0;
  uint64_t found = 0;
  uint8_t root_level = 0;
};

/// Uniform single-client lookups on a fine-grained tree with every inner
/// image cached but TTL-expired at reuse time: the plain loop pays one RTT
/// per level, the speculative loop predicts through the expired images and
/// refreshes path + leaf in one doorbell-batched READ.
SpecPhaseResult RunSpecPhase(bool speculative, uint64_t keys,
                             uint64_t rounds) {
  ExperimentConfig config;
  config.design = DesignKind::kFine;
  config.num_keys = keys;
  config.page_size = 256;  // small pages: height >= 3 at bench scale
  config.client_cache_pages = 4096;
  config.client_cache_ttl = 30 * namtree::kMicrosecond;
  config.speculative_descent = speculative;
  namtree::bench::Experiment exp = MakeExperiment(config);
  namtree::sim::Simulator& simulator = exp.cluster->simulator();
  exp.cluster->fabric().SetNumClients(1);
  namtree::nam::ClientContext ctx(0, exp.cluster->fabric(),
                                  exp.index->page_size(), 7);

  // Warm pass: touch every leaf so all inner images are cached (they will
  // be expired, not evicted, by measurement time).
  uint64_t warm_found = 0;
  namtree::sim::Spawn(simulator, UniformLookups(*exp.index, ctx, 3 * keys / 4,
                                                keys, &warm_found));
  simulator.Run();

  const uint64_t before = ctx.round_trips;
  SpecPhaseResult r;
  namtree::sim::Spawn(simulator,
                      UniformLookups(*exp.index, ctx, rounds, keys, &r.found));
  simulator.Run();

  r.round_trips_per_op = static_cast<double>(ctx.round_trips - before) /
                         static_cast<double>(rounds);
  r.speculative_hits = ctx.speculative_hits;
  r.mispredicts = ctx.mispredicts;
  r.root_level =
      static_cast<namtree::index::FineGrainedIndex*>(exp.index.get())
          ->root_level();
  return r;
}

struct PipelinedPhaseResult {
  double ops_per_s = 0;
  /// Registry window of the run — emitted wholesale into the JSON report.
  namtree::metrics::Delta counters;
};

/// Pipelined Zipf YCSB A on the fine-grained design: `depth` lanes per
/// client hammer the same hot pages.
PipelinedPhaseResult RunPipelinedPhase(uint64_t keys, uint32_t clients,
                                       uint32_t depth) {
  ExperimentConfig config;
  config.design = DesignKind::kFine;
  config.num_keys = keys;
  config.page_size = 256;
  namtree::bench::Experiment exp = MakeExperiment(config);

  namtree::ycsb::RunConfig run;
  run.num_clients = clients;
  run.pipeline_depth = depth;
  run.mix = namtree::ycsb::WorkloadA();
  run.dist = namtree::ycsb::RequestDistribution::kZipfian;
  run.zipf_theta = 0.99;
  run.warmup = namtree::kMillisecond;
  run.duration = 10 * namtree::kMillisecond;
  const namtree::ycsb::RunResult result = exp.Run(run);

  PipelinedPhaseResult r;
  r.ops_per_s = result.ops_per_sec;
  r.counters = result.counters;
  return r;
}

struct MultiGetPhaseResult {
  double single_round_trips_per_op = 0;
  double grouped_round_trips_per_op = 0;
  uint64_t missing = 0;
};

// namtree-lint: safe-coro-ref(referents live in RunMultiGetPhase's frame, which blocks on simulator.Run() until this task finishes)
namtree::sim::Task<> MultiGetDriver(namtree::index::DistributedIndex& index,
                                    namtree::nam::ClientContext& ctx,
                                    uint64_t keys, uint64_t batch_span,
                                    MultiGetPhaseResult* out) {
  // Warm the inner cache so grouping has predictions to work with.
  for (Key k = 0; k < keys; k += 16) {
    (void)(co_await index.Lookup(ctx, k * namtree::ycsb::kKeyStride)).status;
  }
  std::vector<Key> batch;
  for (Key k = 1000; k < 1000 + batch_span; ++k) {
    batch.push_back(k * namtree::ycsb::kKeyStride);
  }
  const uint64_t before_single = ctx.round_trips;
  for (const Key k : batch) {
    const LookupResult r = co_await index.Lookup(ctx, k);
    if (!r.found) out->missing++;
  }
  out->single_round_trips_per_op =
      static_cast<double>(ctx.round_trips - before_single) /
      static_cast<double>(batch.size());

  std::vector<LookupResult> results(batch.size());
  const uint64_t before_multi = ctx.round_trips;
  co_await index.MultiGet(ctx, batch, results.data());
  out->grouped_round_trips_per_op =
      static_cast<double>(ctx.round_trips - before_multi) /
      static_cast<double>(batch.size());
  for (const LookupResult& r : results) {
    if (!r.found) out->missing++;
  }
}

MultiGetPhaseResult RunMultiGetPhase(uint64_t keys) {
  ExperimentConfig config;
  config.design = DesignKind::kFine;
  config.num_keys = keys;
  config.page_size = 256;
  config.client_cache_pages = 4096;
  config.client_cache_ttl = 0;  // NodeCache treats 0 as no expiry
  namtree::bench::Experiment exp = MakeExperiment(config);
  exp.cluster->fabric().SetNumClients(1);
  namtree::nam::ClientContext ctx(0, exp.cluster->fabric(),
                                  exp.index->page_size(), 11);
  MultiGetPhaseResult r;
  namtree::sim::Spawn(exp.cluster->simulator(),
                      MultiGetDriver(*exp.index, ctx, keys, 256, &r));
  exp.cluster->simulator().Run();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  namtree::ArgParser args(argc, argv);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 60000));
  const uint64_t rounds = static_cast<uint64_t>(args.GetInt("rounds", 4000));
  const uint32_t clients = static_cast<uint32_t>(args.GetInt("clients", 8));
  const uint32_t depth = static_cast<uint32_t>(args.GetInt("depth", 8));

  namtree::bench::PrintPreamble(
      "Ablation: speculative descent / MultiGet",
      "One-RTT lookup fast paths on the fine-grained design",
      Num(static_cast<double>(keys)) + " keys, page=256; spec phase: 1 "
          "client, uniform, TTL-expired inner cache; pipelined phase: " +
          Num(clients) + " clients x depth " + Num(depth) + ", Zipf 0.99");

  std::printf("\n# subplot: round_trips_per_lookup\n");
  PrintRow({"mode", "round_trips_per_op", "spec_hits", "mispredicts",
            "root_level"});
  const SpecPhaseResult spec_base = RunSpecPhase(false, keys, rounds);
  PrintRow({"plain", Num(spec_base.round_trips_per_op),
            Num(spec_base.speculative_hits), Num(spec_base.mispredicts),
            Num(spec_base.root_level)});
  const SpecPhaseResult spec_on = RunSpecPhase(true, keys, rounds);
  PrintRow({"speculative", Num(spec_on.round_trips_per_op),
            Num(spec_on.speculative_hits), Num(spec_on.mispredicts),
            Num(spec_on.root_level)});
  const double rtt_reduction =
      spec_base.round_trips_per_op > 0
          ? 100.0 *
                (1.0 - spec_on.round_trips_per_op /
                           spec_base.round_trips_per_op)
          : 0;
  std::printf("# round trips per lookup: %.3f -> %.3f (-%.1f%%)\n",
              spec_base.round_trips_per_op, spec_on.round_trips_per_op,
              rtt_reduction);

  std::printf("\n# subplot: pipelined_zipf\n");
  PrintRow({"mode", "ops_per_s"});
  const PipelinedPhaseResult pipelined =
      RunPipelinedPhase(keys, clients, depth);
  PrintRow({"pipelined", Num(pipelined.ops_per_s)});

  std::printf("\n# subplot: multiget_round_trips\n");
  PrintRow({"mode", "round_trips_per_key"});
  const MultiGetPhaseResult mg = RunMultiGetPhase(keys);
  PrintRow({"single_lookups", Num(mg.single_round_trips_per_op)});
  PrintRow({"multiget", Num(mg.grouped_round_trips_per_op)});
  const double mg_speedup =
      mg.grouped_round_trips_per_op > 0
          ? mg.single_round_trips_per_op / mg.grouped_round_trips_per_op
          : 0;
  std::printf("# dense-batch round trips per key: x%.2f fewer\n", mg_speedup);

  JsonReport report;
  report.Set("bench", std::string("ablate_speculative_descent"));
  report.Set("config.keys", keys);
  report.Set("config.rounds", rounds);
  report.Set("config.page_size", static_cast<uint64_t>(256));
  report.Set("config.pipelined_clients", static_cast<uint64_t>(clients));
  report.Set("config.pipeline_depth", static_cast<uint64_t>(depth));
  report.Set("spec.root_level", static_cast<uint64_t>(spec_base.root_level));
  report.Set("spec.base.round_trips_per_op", spec_base.round_trips_per_op);
  report.Set("spec.speculative.round_trips_per_op",
             spec_on.round_trips_per_op);
  report.Set("spec.speculative.hits", spec_on.speculative_hits);
  report.Set("spec.speculative.mispredicts", spec_on.mispredicts);
  report.Set("spec.round_trip_reduction_percent", rtt_reduction);
  report.Set("pipelined.ops_per_s", pipelined.ops_per_s);
  report.Set("multiget.single_round_trips_per_key",
             mg.single_round_trips_per_op);
  report.Set("multiget.grouped_round_trips_per_key",
             mg.grouped_round_trips_per_op);
  report.Set("multiget.reduction_factor", mg_speedup);
  report.Set("multiget.missing", mg.missing);
  // The whole registry window of the pipelined run, emitted generically
  // (docs/observability.md); the CI metrics-schema step diffs this key set.
  namtree::bench::EmitMetrics(pipelined.counters, report);
  if (!namtree::bench::MaybeWriteJson(args, report)) return 1;
  return 0;
}
