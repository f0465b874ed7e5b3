#include "designs.h"

#include <time.h>

#include <cstdio>
#include <cstdlib>

#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"

namespace perfbench {

namespace {

Workload MakeWorkload(std::string_view name, ycsb::WorkloadMix mix,
                      std::array<Workload::Timing, 4> timing) {
  Workload w;
  w.name = name;
  w.mix = mix;
  w.timing = timing;
  return w;
}

// Why each workload exists is in README.md. The timings are calibration.
// Warmups are long enough for the closed loop to reach its steady queues.
// A slice costs about 1/12 host CPU second (4 designs x 3 deployments
// measure about one CPU second per slice index), except where
// more virtual time buys steadiness: latency percentiles that sit on the
// knee between queued and unqueued ops (cg, cg1s and hybrid on
// point_uniform; cg, fg and hybrid on insert_heavy) and range_skew's
// copy-bound host cost get 1.5-3x longer slices.
const std::array<Workload, 4>& Workloads() {
  static const std::array<Workload, 4> workloads = [] {
    constexpr SimTime ms = kMillisecond;
    constexpr SimTime us = kMicrosecond;
    // {warmup, slice} in kDesigns order: cg, cg1s, fg, hybrid. range_skew
    // warms up until the hot server's queue is full; point_zipf_cached
    // until cg1s/fg throughput stops climbing as the 240 private caches
    // fill (~50/80 virtual ms).
    Workload point = MakeWorkload(
        "point_uniform", ycsb::WorkloadA(),
        {{{2 * ms, 80 * ms}, {2 * ms, 50 * ms}, {2 * ms, 47 * ms},
          {2 * ms, 30 * ms}}});
    Workload insert = MakeWorkload(
        "insert_heavy", ycsb::WorkloadD(),
        {{{2 * ms, 55 * ms}, {2 * ms, 20 * ms}, {2 * ms, 40 * ms},
          {2 * ms, 30 * ms}}});
    Workload range = MakeWorkload(
        "range_skew", ycsb::WorkloadB(0.01),
        {{{100 * ms, 100 * ms}, {40 * ms, 30 * ms}, {10 * ms, 9 * ms},
          {10 * ms, 9 * ms}}});
    range.skewed_placement = true;
    Workload zipf = MakeWorkload(
        "point_zipf_cached", ycsb::WorkloadA(),
        {{{2 * ms, 27 * ms}, {50 * ms, 800 * us}, {80 * ms, 1200 * us},
          {2 * ms, 12 * ms}}});
    zipf.dist = ycsb::RequestDistribution::kZipfian;
    zipf.cached = true;
    return std::array<Workload, 4>{point, insert, range, zipf};
  }();
  return workloads;
}

}  // namespace

const char* DesignName(Design design) {
  switch (design) {
    case Design::kCg:
      return "cg";
    case Design::kCg1s:
      return "cg1s";
    case Design::kFg:
      return "fg";
    case Design::kHybrid:
      return "hybrid";
  }
  return "?";
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

Deployment Deploy(Design design, const Workload& workload,
                  std::span<const btree::KV> data, SetupCost* cost) {
  rdma::FabricConfig fabric_config;
  fabric_config.num_memory_servers = kMemoryServers;
  // Leaves + inner nodes + room for splits; the skewed placement puts ~80%
  // of the pages on server 0. Same sizing as bench/bench_common.cc.
  const uint64_t pages = data.size() / 40 + 1024;
  const uint64_t region_bytes = pages * 1024 * 3 + (16ull << 20);

  Deployment d;
  d.design = design;
  const double t0 = ThreadCpuSeconds();
  d.cluster = std::make_unique<nam::Cluster>(fabric_config, region_bytes);
  const double t1 = ThreadCpuSeconds();

  index::IndexConfig config;
  if (workload.skewed_placement) {
    config.partition_weights = {0.80, 0.12, 0.05, 0.03};  // paper §6.1
  }
  if (workload.cached) {
    // Covers every inner page of the 1M-key tree (~400) with room to spare;
    // the hybrid's route cache uses the same budget for leaf routes.
    // Speculative descent applies to the one-sided descents (cg1s, fg).
    config.client_cache_pages = 4096;
    config.speculative_descent = true;
  }
  switch (design) {
    case Design::kCg:
      d.index = std::make_unique<index::CoarseGrainedIndex>(*d.cluster, config);
      break;
    case Design::kCg1s:
      d.index =
          std::make_unique<index::CoarseOneSidedIndex>(*d.cluster, config);
      break;
    case Design::kFg:
      d.index = std::make_unique<index::FineGrainedIndex>(*d.cluster, config);
      break;
    case Design::kHybrid:
      d.index = std::make_unique<index::HybridIndex>(*d.cluster, config);
      break;
  }
  const Status status = d.index->BulkLoad(data);
  const double t2 = ThreadCpuSeconds();
  if (!status.ok()) {
    std::fprintf(stderr, "perf_ledger: bulk load of %s failed: %s\n",
                 DesignName(design), status.ToString().c_str());
    std::exit(2);
  }
  if (cost != nullptr) {
    cost->cluster_s = t1 - t0;
    cost->bulk_load_s = t2 - t1;
  }
  return d;
}

index::IndexInspector::Report Inspect(Deployment& deployment) {
  rdma::Fabric& fabric = deployment.cluster->fabric();
  index::DistributedIndex* idx = deployment.index.get();
  switch (deployment.design) {
    case Design::kCg:
      return index::IndexInspector::Inspect(
          fabric, static_cast<index::CoarseGrainedIndex&>(*idx));
    case Design::kCg1s:
      return index::IndexInspector::Inspect(
          fabric, static_cast<const index::CoarseOneSidedIndex&>(*idx));
    case Design::kFg:
      return index::IndexInspector::Inspect(
          fabric, static_cast<const index::FineGrainedIndex&>(*idx));
    case Design::kHybrid:
      return index::IndexInspector::Inspect(
          fabric, static_cast<index::HybridIndex&>(*idx));
  }
  return {};
}

index::TraversalEngine::CacheStats CacheStatsOf(const Deployment& deployment) {
  const index::DistributedIndex* idx = deployment.index.get();
  switch (deployment.design) {
    case Design::kCg:
      return {};
    case Design::kCg1s:
      return static_cast<const index::CoarseOneSidedIndex*>(idx)
          ->GetCacheStats();
    case Design::kFg:
      return static_cast<const index::FineGrainedIndex*>(idx)->GetCacheStats();
    case Design::kHybrid:
      return static_cast<const index::HybridIndex*>(idx)->GetCacheStats();
  }
  return {};
}

}  // namespace perfbench
