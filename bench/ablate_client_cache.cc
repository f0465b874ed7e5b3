// Ablation for the Appendix A.4 client-side caching extension: fine-grained
// point-query throughput and per-op round trips with the inner-node cache
// disabled vs enabled at several TTLs (ttl=inf: entries live until fence
// validation drops them), for read-only and insert-heavy workloads
// (staleness never breaks correctness, it only costs extra hops).
// D_hot_insert concentrates YCSB D on a contiguous hot range (unscrambled
// Zipf), so one region splits hard while readers keep returning to it:
// the regime in which cached parents go stale and the fence checks fire.
// `--json <path>` writes the machine-readable report CI reruns against the
// committed BENCH_client_cache.json; EXPERIMENTS.md's A.4 table is
// generated from that file.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"

#include "index/fine_grained.h"
#include "nam/cluster.h"

using namespace namtree;
using namtree::bench::JsonReport;
using namtree::bench::Num;
using namtree::bench::PrintRow;

int main(int argc, char** argv) {
  namtree::ArgParser args(argc, argv);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 500000));
  const uint32_t clients =
      static_cast<uint32_t>(args.GetInt("clients", 120));

  namtree::bench::PrintPreamble(
      "Ablation: client cache (Appendix A.4)",
      "Fine-grained index with per-client inner-node caching",
      Num(static_cast<double>(keys)) + " keys, " + Num(clients) + " clients");

  struct Config {
    const char* label;
    const char* json_key;  ///< dot-free: JsonReport nests on '.'
    uint32_t pages;
    SimTime ttl;
  };
  const Config configs[] = {
      {"off", "off", 0, 0},
      {"ttl=0.5ms", "ttl_500us", 1 << 16, namtree::kMillisecond / 2},
      {"ttl=2ms", "ttl_2ms", 1 << 16, 2 * namtree::kMillisecond},
      {"ttl=inf", "ttl_inf", 1 << 16, 0 /* NodeCache treats 0 as no expiry */},
  };

  JsonReport report;
  report.Set("bench", std::string("ablate_client_cache"));
  report.Set("config.keys", keys);
  report.Set("config.clients", static_cast<uint64_t>(clients));
  report.Set("config.cache_pages", static_cast<uint64_t>(1 << 16));
  struct Workload {
    const char* name;
    namtree::ycsb::WorkloadMix mix;
    namtree::ycsb::RequestDistribution dist;
    SimTime duration;
  };
  const Workload workloads[] = {
      {"A_point", namtree::ycsb::WorkloadA(),
       namtree::ycsb::RequestDistribution::kUniform,
       20 * namtree::kMillisecond},
      {"D_50pct_insert", namtree::ycsb::WorkloadD(),
       namtree::ycsb::RequestDistribution::kUniform,
       20 * namtree::kMillisecond},
      // Longer, so each client returns to the hot range many times
      // between splits there.
      {"D_hot_insert", namtree::ycsb::WorkloadD(),
       namtree::ycsb::RequestDistribution::kZipfianClustered,
       100 * namtree::kMillisecond},
  };
  for (const Workload& workload : workloads) {
    std::printf("\n# subplot: workload_%s\n", workload.name);
    PrintRow({"cache", "ops_per_s", "round_trips_per_op", "hit_rate"});
    for (const Config& cache_config : configs) {
      rdma::FabricConfig fabric_config;
      const uint64_t region_bytes =
          (keys / 40 + 1024) * 1024ull * 3 + (16ull << 20);
      nam::Cluster cluster(fabric_config, region_bytes);
      namtree::index::IndexConfig ic;
      ic.client_cache_pages = cache_config.pages;
      ic.client_cache_ttl = cache_config.ttl;
      auto index = std::make_unique<namtree::index::FineGrainedIndex>(
          cluster, ic);
      const auto data = namtree::ycsb::GenerateDataset(keys);
      if (!index->BulkLoad(data).ok()) return 1;

      namtree::ycsb::RunConfig run;
      run.num_clients = clients;
      run.mix = workload.mix;
      run.dist = workload.dist;
      run.duration = workload.duration;
      run.warmup = 2 * namtree::kMillisecond;
      const auto result =
          namtree::ycsb::RunWorkload(cluster, *index, keys, run);
      const auto cache_stats = index->GetCacheStats();
      const double lookups = static_cast<double>(cache_stats.hits +
                                                 cache_stats.misses);
      const double round_trips_per_op =
          static_cast<double>(result.round_trips()) /
          static_cast<double>(std::max<uint64_t>(1, result.ops()));
      PrintRow({cache_config.label, Num(result.ops_per_sec),
                Num(round_trips_per_op),
                lookups > 0 ? Num(cache_stats.hits / lookups) : "n/a"});

      const std::string cell =
          std::string(workload.name) + "." + cache_config.json_key + ".";
      report.Set(cell + "ops_per_s", result.ops_per_sec);
      report.Set(cell + "round_trips_per_op", round_trips_per_op);
      report.Set(cell + "failed_ops", result.failed_ops());
      report.Set(cell + "cache_hits", cache_stats.hits);
      report.Set(cell + "cache_misses", cache_stats.misses);
      report.Set(cell + "cache_expirations", cache_stats.expirations);
      report.Set(cell + "cache_fence_invalidations",
                 cache_stats.fence_invalidations);
      if (lookups > 0) {
        report.Set(cell + "hit_rate", cache_stats.hits / lookups);
      }
    }
  }
  if (!namtree::bench::MaybeWriteJson(args, report)) return 1;
  return 0;
}
