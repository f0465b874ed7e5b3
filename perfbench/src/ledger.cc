// perf_ledger: runs one named workload on the four B-link designs, one
// design at a time from a fresh bulk load, checks their answers, and prints
// every metric by name with its unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (see README.md).
//
//   perf_ledger --workload point_uniform --seed 1 --seconds 8 --trace 0
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "designs.h"
#include "gate.h"
#include "host_speed.h"
#include "model/scalability.h"
#include "probes.h"
#include "sim/task.h"
#include "traced_run.h"
#include "ycsb/runner.h"

namespace perfbench {
namespace {

/// Deployments (fresh cluster + bulk load + measured run) per design;
/// setup_s reports each design's median set-up.
constexpr int kDeployments = 3;

/// Fig 8a saturation anchors (EXPERIMENTS.md, "Calibration targets").
constexpr double kPaperOpsCg = 1.3e6;
constexpr double kPaperOpsHybrid = 2.0e6;
constexpr double kPaperOpsFg = 0.55e6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 8;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Counters that only ever grow; the window value is deadline minus warmup.
struct Counts {
  uint64_t round_trips = 0;
  uint64_t restarts = 0;
  uint64_t lock_waits = 0;
  uint64_t speculative_hits = 0;
  uint64_t mispredicts = 0;
  uint64_t rpcs = 0;
  uint64_t events = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  Counts operator-(const Counts& o) const {
    return {round_trips - o.round_trips, restarts - o.restarts,
            lock_waits - o.lock_waits, speculative_hits - o.speculative_hits,
            mispredicts - o.mispredicts, rpcs - o.rpcs, events - o.events,
            cache_hits - o.cache_hits, cache_misses - o.cache_misses};
  }
  Counts& operator+=(const Counts& o) {
    round_trips += o.round_trips;
    restarts += o.restarts;
    lock_waits += o.lock_waits;
    speculative_hits += o.speculative_hits;
    mispredicts += o.mispredicts;
    rpcs += o.rpcs;
    events += o.events;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    return *this;
  }
};

Counts ReadCounts(Deployment& d) {
  const metrics::MetricRegistry& registry = d.cluster->fabric().metrics();
  Counts c;
  c.round_trips = registry.Value("client.round_trips");
  c.restarts = registry.Value("client.restarts");
  c.lock_waits = registry.Value("client.lock_waits");
  c.speculative_hits = registry.Value("client.speculative_hits");
  c.mispredicts = registry.Value("client.mispredicts");
  for (uint32_t s = 0; s < d.cluster->num_memory_servers(); ++s) {
    c.rpcs += d.cluster->memory_server(s).requests_handled();
  }
  c.events = d.cluster->simulator().events_processed();
  const auto cache = CacheStatsOf(d);
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  return c;
}

/// Fabric statistics the runner resets at the end of warmup, read at the
/// deadline: they cover exactly the measurement window.
struct FabricWindow {
  std::vector<uint64_t> bytes;      ///< per server, tx + rx
  std::vector<SimTime> engine_busy;  ///< per server
  uint64_t atomics = 0;
  uint64_t doorbells = 0;

  FabricWindow& operator+=(const FabricWindow& o) {
    bytes.resize(o.bytes.size());
    engine_busy.resize(o.engine_busy.size());
    for (size_t s = 0; s < o.bytes.size(); ++s) {
      bytes[s] += o.bytes[s];
      engine_busy[s] += o.engine_busy[s];
    }
    atomics += o.atomics;
    doorbells += o.doorbells;
    return *this;
  }
};

FabricWindow ReadFabricWindow(Deployment& d) {
  rdma::Fabric& fabric = d.cluster->fabric();
  FabricWindow w;
  for (uint32_t s = 0; s < d.cluster->num_memory_servers(); ++s) {
    const rdma::Fabric::ServerStats stats = fabric.server_stats(s);
    w.bytes.push_back(stats.tx_bytes + stats.rx_bytes);
    w.engine_busy.push_back(stats.engine_busy);
    w.atomics += stats.atomics;
  }
  w.doorbells = fabric.metrics().Value("fabric.doorbells");
  return w;
}

/// The process's speed reference (its 16 MiB arena is allocated once).
SpeedReference& Speed() {
  static SpeedReference reference;
  return reference;
}

// namtree-lint: safe-coro-ref(the simulator outlives the marker: RunMeasured blocks on RunWorkload's simulator.Run())
sim::Task<> Marker(sim::Simulator& simulator, SimTime at,
                   std::function<void()> read) {
  co_await sim::DelayUntil(simulator, at);
  read();
}

ycsb::RunConfig RunConfigFor(const Workload& w, Design design, uint64_t seed,
                             int deployment, int slices) {
  ycsb::RunConfig config;
  config.num_clients = kClients;
  config.warmup = w.TimingFor(design).warmup;
  config.duration = slices * w.TimingFor(design).slice;
  config.mix = w.mix;
  config.dist = w.dist;
  config.seed = seed * kDeployments + static_cast<uint64_t>(deployment);
  return config;
}

/// Everything measured for one design, summed over its deployments.
struct DesignRun {
  Design design = Design::kCg;
  std::vector<SetupCost> setups;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double window_s = 0;
  Histogram latency;
  Counts counts;        ///< measurement-window deltas
  FabricWindow fabric;  ///< measurement windows
  std::vector<double> slice_ns_per_op;  ///< host CPU ns per op, per slice
  /// SpeedReference ns/step around each slice (mean of the readings just
  /// before and just after it).
  std::vector<double> slice_ref_ns;
  double cpu_s = 0;          ///< host CPU of the RunWorkload calls
  uint64_t call_events = 0;  ///< simulator events of those calls
  uint64_t leaf_pages = 0;   ///< after the first deployment's run
  /// The first deployment's run alone, which the traced run replays.
  ycsb::RunConfig first_config;
  uint64_t first_ops = 0;
  Histogram first_latency;
  double first_cpu_s = 0;
  std::string error;

  /// Host CPU the windows cost, robust to a slowed slice: the median
  /// slice's cost per op times the windows' ops.
  double RobustCpuNs() const {
    return Median(slice_ns_per_op) * static_cast<double>(ops);
  }
  /// The same at the calibration host's speed: each slice's cost is scaled
  /// by kReferenceNsPerStep over the reference reading around it.
  double ScaledCpuNs() const {
    std::vector<double> scaled;
    for (size_t j = 0; j < slice_ns_per_op.size(); ++j) {
      scaled.push_back(slice_ns_per_op[j] * kReferenceNsPerStep /
                       slice_ref_ns[j]);
    }
    return Median(scaled) * static_cast<double>(ops);
  }
};

/// Runs `config` once on `d` and adds it to `run`. Markers at the end of
/// warmup and at each slice boundary read the thread CPU clock and the
/// registry's completed-op count (plus the layer counters at the window's
/// two ends); they only observe, so virtual-time output is unchanged.
void RunMeasured(Deployment& d, const ycsb::RunConfig& config, int slices,
                 DesignRun* run) {
  sim::Simulator& simulator = d.cluster->simulator();
  const metrics::MetricRegistry& registry = d.cluster->fabric().metrics();
  const SimTime warmup_end = simulator.now() + config.warmup;
  const SimTime slice = config.duration / slices;
  Counts at_warmup;
  Counts at_deadline;
  FabricWindow fabric;
  SpeedReference& speed = Speed();
  double mark_cpu = 0;
  double mark_ref = 0;
  uint64_t mark_ops = 0;
  sim::Spawn(simulator, Marker(simulator, warmup_end, [&] {
               at_warmup = ReadCounts(d);
               mark_ops = registry.Value("ycsb.ops");
               mark_ref = speed.NsPerStep();
               mark_cpu = ThreadCpuSeconds();
             }));
  for (int j = 1; j <= slices; ++j) {
    sim::Spawn(simulator, Marker(simulator, warmup_end + j * slice, [&, j] {
                 const double cpu = ThreadCpuSeconds();
                 const uint64_t ops = registry.Value("ycsb.ops");
                 const double slice_ops =
                     static_cast<double>(std::max<uint64_t>(1, ops - mark_ops));
                 run->slice_ns_per_op.push_back((cpu - mark_cpu) * 1e9 /
                                                slice_ops);
                 const double ref = speed.NsPerStep();
                 run->slice_ref_ns.push_back(0.5 * (mark_ref + ref));
                 if (j == slices) {
                   at_deadline = ReadCounts(d);
                   fabric = ReadFabricWindow(d);
                 }
                 mark_ops = ops;
                 mark_ref = ref;
                 mark_cpu = ThreadCpuSeconds();
               }));
  }
  const uint64_t events0 = simulator.events_processed();
  const double t0 = ThreadCpuSeconds();
  const ycsb::RunResult result =
      ycsb::RunWorkload(*d.cluster, *d.index, kNumKeys, config);
  const double cpu = ThreadCpuSeconds() - t0;
  if (run->ops == 0) {
    run->first_config = config;
    run->first_ops = result.ops();
    run->first_latency = result.latency;
    run->first_cpu_s = cpu;
  }
  run->cpu_s += cpu;
  run->call_events += simulator.events_processed() - events0;
  run->ops += result.ops();
  run->failed += result.failed_ops();
  run->window_s += result.seconds;
  run->latency.Merge(result.latency);
  run->counts += at_deadline - at_warmup;
  run->fabric += fabric;
}

/// Deployment `i` of `run->design`: a fresh cluster and bulk load, the
/// measured workload (warmup plus `slices` slices), and the gate.
void DeployAndMeasure(const Workload& w, const std::vector<btree::KV>& data,
                      uint64_t seed, int i, int slices, bool probe_pages,
                      double* page_ns, DesignRun* run) {
  SetupCost cost;
  Deployment d = Deploy(run->design, w, data, &cost);
  run->setups.push_back(cost);
  const uint64_t failed_before = run->failed;
  RunMeasured(d, RunConfigFor(w, run->design, seed, i, slices), slices, run);
  index::IndexInspector::Report report;
  run->error = CheckDeployment(d, w, kNumKeys, seed + i,
                               run->failed - failed_before, &report);
  if (i == 0) {
    run->leaf_pages = report.leaf_pages;
    if (probe_pages) *page_ns = ProbePageSearchNs(d, seed);
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  return out + "}}";
}

double PerOp(uint64_t count, uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(ops);
}

double Ratio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

/// Table 2 bytes per query at the ledger's scale, for `scheme`.
double ModelBytes(const Workload& w, model::Scheme scheme) {
  model::ModelParams p;
  p.num_servers = kMemoryServers;
  p.data_size = static_cast<double>(kNumKeys);
  if (w.mix.range > 0) {
    // Skewed placement, uniform queries: no read amplification (z = 1).
    return model::RangeQueryBytes(p, scheme,
                                  w.skewed_placement
                                      ? model::Distribution::kSkew
                                      : model::Distribution::kUniform,
                                  w.mix.range_selectivity, 1.0);
  }
  return model::PointQueryBytes(p, scheme, model::Distribution::kUniform, 1.0);
}

/// Fig 8a anchor of `design`, or 0 where the paper has none (cg1s).
double PaperOpsPerSecond(Design design) {
  switch (design) {
    case Design::kCg:
      return kPaperOpsCg;
    case Design::kFg:
      return kPaperOpsFg;
    case Design::kHybrid:
      return kPaperOpsHybrid;
    case Design::kCg1s:
      return 0;
  }
  return 0;
}

double OpsPerSecond(const DesignRun& run) {
  return static_cast<double>(run.ops) / run.window_s;
}

/// The per-design metrics of the per-layer report (`t` is the design's
/// traced replay).
void AddDesignLayers(const Workload& w, const DesignRun& run,
                     const TracedRun& t, std::vector<Metric>* out) {
  const std::string d = DesignName(run.design);
  const uint64_t ops = run.ops;
  uint64_t bytes = 0;
  uint64_t max_bytes = 0;
  SimTime max_busy = 0;
  for (size_t s = 0; s < run.fabric.bytes.size(); ++s) {
    bytes += run.fabric.bytes[s];
    max_bytes = std::max(max_bytes, run.fabric.bytes[s]);
    max_busy = std::max(max_busy, run.fabric.engine_busy[s]);
  }
  out->push_back({"ycsb.ops." + d, static_cast<double>(ops), "count"});
  out->push_back(
      {"ycsb.failed." + d, static_cast<double>(run.failed), "count"});
  out->push_back(
      {"sim.events_per_op." + d, PerOp(run.counts.events, ops), "events/op"});
  out->push_back(
      {"rdma.rtt_per_op." + d, PerOp(run.counts.round_trips, ops), "rtt/op"});
  out->push_back({"rdma.bytes_per_op." + d, PerOp(bytes, ops), "B/op"});
  out->push_back({"rdma.bytes_share_max." + d,
                  bytes == 0 ? 0.0
                             : static_cast<double>(max_bytes) /
                                   static_cast<double>(bytes),
                  "ratio"});
  out->push_back({"rdma.engine_util_max." + d,
                  static_cast<double>(max_busy) / 1e9 / run.window_s,
                  "ratio"});
  out->push_back({"rdma.doorbells_per_op." + d,
                  PerOp(run.fabric.doorbells, ops), "doorbells/op"});
  out->push_back({"rdma.atomics_per_op." + d, PerOp(run.fabric.atomics, ops),
                  "atomics/op"});
  out->push_back(
      {"index.rpcs_per_op." + d, PerOp(run.counts.rpcs, ops), "rpcs/op"});
  out->push_back({"index.restarts_per_op." + d,
                  PerOp(run.counts.restarts, ops), "restarts/op"});
  out->push_back({"index.lock_waits_per_op." + d,
                  PerOp(run.counts.lock_waits, ops), "waits/op"});
  if (run.design != Design::kCg) {
    out->push_back({"index.cache_hit_ratio." + d,
                    Ratio(run.counts.cache_hits, run.counts.cache_misses),
                    "ratio"});
  }
  if (run.design == Design::kCg1s || run.design == Design::kFg) {
    out->push_back({"index.speculative_hit_ratio." + d,
                    Ratio(run.counts.speculative_hits, run.counts.mispredicts),
                    "ratio"});
  }
  out->push_back({"index.leaf_pages." + d,
                  static_cast<double>(run.leaf_pages), "count"});
  if (const double paper = PaperOpsPerSecond(run.design); paper > 0) {
    out->push_back({"model.paper_ratio." + d, OpsPerSecond(run) / paper,
                    "ratio"});
  }
  if (run.design == Design::kCg || run.design == Design::kFg) {
    const model::Scheme scheme = run.design == Design::kCg
                                     ? model::Scheme::kCoarseRange
                                     : model::Scheme::kFineGrained;
    out->push_back({"model.bytes_ratio." + d,
                    PerOp(bytes, ops) / ModelBytes(w, scheme), "ratio"});
  }
  out->push_back({"trace.verb_share." + d,
                  t.latency_ns > 0 ? t.verb_ns / t.latency_ns : 0.0, "ratio"});
  out->push_back(
      {"trace.tail_rtt_ratio." + d,
       t.verbs_per_op > 0 ? t.tail_verbs_per_op / t.verbs_per_op : 0.0,
       "ratio"});
}

/// Replays each design's first deployment traced on a fresh load, checks
/// that its virtual-time numbers equal the untraced run's, and returns the
/// replays. Clears `*correct` on a divergence.
std::vector<TracedRun> ReplayTraced(const Workload& w,
                                    const std::vector<DesignRun>& runs,
                                    const std::vector<btree::KV>& data,
                                    bool* correct) {
  std::vector<TracedRun> traced;
  for (const DesignRun& run : runs) {
    Deployment d = Deploy(run.design, w, data);
    traced.push_back(
        RunTraced(*d.cluster, *d.index, kNumKeys, run.first_config));
    const TracedRun& t = traced.back();
    if (t.ops != run.first_ops ||
        t.latency.Quantile(0.5) != run.first_latency.Quantile(0.5) ||
        t.latency.Quantile(0.99) != run.first_latency.Quantile(0.99) ||
        t.latency.mean() != run.first_latency.mean()) {
      *correct = false;
      std::fprintf(stderr,
                   "perf_ledger: workload %s, design %s: traced run "
                   "diverged from the untraced run (%" PRIu64 " vs %" PRIu64
                   " ops)\n",
                   std::string(w.name).c_str(), DesignName(run.design), t.ops,
                   run.first_ops);
    }
  }
  return traced;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perf_ledger --workload "
                 "{point_uniform|insert_heavy|range_skew|point_zipf_cached} "
                 "[--seed N] [--seconds N] [--trace 0|1]\n");
    return 2;
  }
  const Workload& w = *FindWorkload(args.workload);
  // Every deployment measures one slice per requested second; a slice is
  // calibrated to ~1/12 CPU second or more, so the 4 designs x 3
  // deployments measure at least --seconds CPU seconds in all.
  const int slices = args.seconds;

  std::vector<double> dataset_s;
  std::vector<btree::KV> data;
  for (int r = 0; r < kDeployments; ++r) {
    const double t0 = ThreadCpuSeconds();
    data = ycsb::GenerateDataset(kNumKeys);
    dataset_s.push_back(ThreadCpuSeconds() - t0);
  }

  // Round-robin over the designs, one deployment alive at a time: each
  // design's deployments then spread over the whole run, so a stretch of
  // slow host (co-tenants) weighs on every design alike.
  double page_ns = 0;
  std::vector<DesignRun> runs(kDesigns.size());
  for (int i = 0; i < kDeployments; ++i) {
    for (size_t k = 0; k < kDesigns.size(); ++k) {
      runs[k].design = kDesigns[k];
      if (!runs[k].error.empty()) continue;
      DeployAndMeasure(w, data, args.seed, i, slices,
                       args.trace && kDesigns[k] == Design::kFg, &page_ns,
                       &runs[k]);
    }
  }
  for (DesignRun& run : runs) {
    if (run.error.empty() && run.ops < 1000) {
      run.error = "p99 rests on " + std::to_string(run.ops) +
                  " ops, fewer than 1000";
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double cpu_ns = 0;
  double scaled_ns = 0;
  std::vector<double> ref_ns;
  double setup_s = Median(dataset_s);
  double cluster_s = 0;
  double bulk_load_s = 0;
  for (const DesignRun& run : runs) {
    attempted += run.ops;
    failed += run.failed;
    cpu_ns += run.RobustCpuNs();
    scaled_ns += run.ScaledCpuNs();
    ref_ns.insert(ref_ns.end(), run.slice_ref_ns.begin(),
                  run.slice_ref_ns.end());
    std::vector<double> setup, cluster, bulk;
    for (const SetupCost& c : run.setups) {
      setup.push_back(c.cluster_s + c.bulk_load_s);
      cluster.push_back(c.cluster_s);
      bulk.push_back(c.bulk_load_s);
    }
    setup_s += Median(setup);
    cluster_s += Median(cluster);
    bulk_load_s += Median(bulk);
    std::printf("%-18s %-6s ops=%" PRIu64 " failed=%" PRIu64
                " ops/s=%.0f p50=%.0fns p99=%.0fns (p99 over %" PRIu64
                " samples) host=%.0fns/op\n",
                std::string(w.name).c_str(), DesignName(run.design), run.ops,
                run.failed, OpsPerSecond(run), run.latency.Quantile(0.5),
                run.latency.Quantile(0.99), run.latency.count(),
                Median(run.slice_ns_per_op));
    if (!run.error.empty()) {
      correct = false;
      std::fprintf(stderr, "perf_ledger: workload %s, design %s: %s\n",
                   std::string(w.name).c_str(), DesignName(run.design),
                   run.error.c_str());
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    for (const DesignRun& run : runs) {
      const std::string d = DesignName(run.design);
      metrics.push_back({"ops_per_s." + d, OpsPerSecond(run), "1/s"});
      metrics.push_back({"p50_ns." + d, run.latency.Quantile(0.5), "ns"});
      metrics.push_back({"p99_ns." + d, run.latency.Quantile(0.99), "ns"});
    }
    metrics.push_back(
        {"host_ns_per_op", scaled_ns / static_cast<double>(attempted), "ns"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    const std::vector<TracedRun> traced =
        ReplayTraced(w, runs, data, &correct);
    uint64_t events = 0;
    double cpu_s = 0;
    double traced_cpu = 0;
    double untraced_cpu = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      AddDesignLayers(w, runs[i], traced[i], &metrics);
      events += runs[i].call_events;
      cpu_s += runs[i].cpu_s;
      traced_cpu += traced[i].cpu_s;
      untraced_cpu += runs[i].first_cpu_s;
    }
    metrics.push_back(
        {"ycsb.host_ns_per_gen", ProbeGeneratorNs(w, args.seed), "ns"});
    metrics.push_back({"ycsb.dataset_s", Median(dataset_s), "s"});
    metrics.push_back({"sim.host_ns_per_event",
                       cpu_s * 1e9 / static_cast<double>(events), "ns"});
    metrics.push_back({"sim.bare_ns_per_event", ProbeBareEventNs(), "ns"});
    metrics.push_back({"rdma.host_ns_per_verb", ProbeVerbNs(), "ns"});
    metrics.push_back({"index.bulk_load_s", bulk_load_s, "s"});
    metrics.push_back({"nam.cluster_s", cluster_s, "s"});
    metrics.push_back({"btree.host_ns_per_search", page_ns, "ns"});
    metrics.push_back(
        {"trace.host_overhead", traced_cpu / untraced_cpu, "ratio"});
    metrics.push_back({"ledger.raw_host_ns_per_op",
                       cpu_ns / static_cast<double>(attempted), "ns"});
    metrics.push_back({"ledger.ref_ns_per_step", Median(ref_ns), "ns"});
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
