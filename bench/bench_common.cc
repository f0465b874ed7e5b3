#include "bench_common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"

namespace namtree::bench {

const char* DesignLabel(DesignKind kind) {
  switch (kind) {
    case DesignKind::kCoarse:
      return "coarse-grained";
    case DesignKind::kFine:
      return "fine-grained";
    case DesignKind::kHybrid:
      return "hybrid";
    case DesignKind::kCoarseOneSided:
      return "coarse-one-sided";
  }
  return "?";
}

std::vector<double> SkewWeights(uint32_t servers) {
  if (servers == 1) return {1.0};
  if (servers == 4) return {0.80, 0.12, 0.05, 0.03};  // paper §6.1
  std::vector<double> weights(servers, 0.0);
  weights[0] = 0.80;
  // Remaining 20% split geometrically (each next server gets ~60% of the
  // previous one's share), echoing the 12/5/3 tail.
  double rest = 0.20;
  double share = rest * 0.4 / (1.0 - std::pow(0.6, servers - 1.0));
  double acc = 0;
  for (uint32_t s = 1; s < servers; ++s) {
    weights[s] = share * std::pow(0.6, s - 1.0);
    acc += weights[s];
  }
  // Normalise the tail to exactly 20%.
  for (uint32_t s = 1; s < servers; ++s) weights[s] *= rest / acc;
  return weights;
}

Experiment MakeExperiment(const ExperimentConfig& config) {
  rdma::FabricConfig fabric_config;
  fabric_config.num_memory_servers = config.num_memory_servers;
  fabric_config.colocate = config.colocate;
  if (config.colocate) {
    // Appendix A.3 deployment: one memory server per machine, compute
    // threads on the same machines.
    fabric_config.memory_servers_per_machine = 1;
    fabric_config.clients_per_compute_machine =
        std::max<uint32_t>(1, 80 / config.num_memory_servers);
  }
  if (config.workers_per_server > 0) {
    fabric_config.workers_per_server = config.workers_per_server;
  }

  uint64_t region_bytes = config.region_bytes;
  if (region_bytes == 0) {
    // Leaves + inner nodes + headroom for splits/heads; skew places up to
    // ~85% of the pages on server 0, so size for that.
    const uint64_t total_pages =
        config.num_keys / 40 + 1024;  // ~52 entries/leaf at 1KB, inflated
    region_bytes = total_pages * config.page_size * 3 + (16ull << 20);
  }

  Experiment exp;
  exp.cluster = std::make_unique<nam::Cluster>(fabric_config, region_bytes);
  exp.num_keys = config.num_keys;

  index::IndexConfig index_config;
  index_config.page_size = config.page_size;
  index_config.head_node_interval = config.head_node_interval;
  index_config.partition = config.partition;
  index_config.client_cache_pages = config.client_cache_pages;
  index_config.client_cache_ttl = config.client_cache_ttl;
  index_config.speculative_descent = config.speculative_descent;
  if (config.skewed_data) {
    index_config.partition_weights = SkewWeights(config.num_memory_servers);
  }

  switch (config.design) {
    case DesignKind::kCoarse:
      exp.index = std::make_unique<index::CoarseGrainedIndex>(*exp.cluster,
                                                              index_config);
      break;
    case DesignKind::kFine:
      exp.index = std::make_unique<index::FineGrainedIndex>(*exp.cluster,
                                                            index_config);
      break;
    case DesignKind::kHybrid:
      exp.index = std::make_unique<index::HybridIndex>(*exp.cluster,
                                                       index_config);
      break;
    case DesignKind::kCoarseOneSided:
      exp.index = std::make_unique<index::CoarseOneSidedIndex>(*exp.cluster,
                                                               index_config);
      break;
  }

  const auto data = ycsb::GenerateDataset(config.num_keys);
  const Status status = exp.index->BulkLoad(data);
  if (!status.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  return exp;
}

std::vector<uint32_t> ClientSweep(int64_t scale) {
  // The paper sweeps 20..240 clients in steps of one compute server (40
  // threads); we add the 20-client half-machine point it plots first.
  std::vector<uint32_t> sweep = {20, 40, 80, 120, 160, 200, 240};
  if (scale > 1) {
    std::vector<uint32_t> scaled;
    for (size_t i = 0; i < sweep.size(); i += static_cast<size_t>(scale)) {
      scaled.push_back(sweep[i]);
    }
    if (scaled.back() != sweep.back()) scaled.push_back(sweep.back());
    return scaled;
  }
  return sweep;
}

SimTime DurationFor(const ycsb::WorkloadMix& mix, uint64_t num_keys,
                    uint32_t clients) {
  // Range queries cost ~sel * num_leaves page accesses each. Under heavy
  // load the cluster serves roughly (workers + NIC pipelines) queries in
  // parallel, so a closed-loop client sees ~clients/16 queue positions in
  // front of it; size the window for a handful of completions per client.
  if (mix.range > 0) {
    const double leaves = static_cast<double>(num_keys) / 52.0;
    const double pages = mix.range_selectivity * leaves;
    const SimTime per_query =
        static_cast<SimTime>(pages * 2500.0) + 50 * kMicrosecond;
    const SimTime queue_factor = std::max<SimTime>(12, clients / 6);
    return std::max<SimTime>(30 * kMillisecond, queue_factor * per_query);
  }
  return 20 * kMillisecond;
}

void RunLoadSweep(const ArgParser& args, const std::string& figure,
                  const std::string& title, bool skewed_data,
                  SweepMetric metric) {
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 1000000));
  const int64_t scale = args.GetInt("scale", 1);
  const std::vector<uint32_t> clients = ClientSweep(scale);

  PrintPreamble(figure, title,
                std::string("data: ") + Num(static_cast<double>(keys)) +
                    " keys, " + (skewed_data ? "skewed (80/12/5/3)"
                                             : "uniform") +
                    " placement; 4 memory servers on 2 machines; paper scale "
                    "is 100M keys");

  struct Subplot {
    const char* label;
    ycsb::WorkloadMix mix;
  };
  const std::vector<Subplot> subplots = {
      {"point_queries", ycsb::WorkloadA()},
      {"range_sel_0.001", ycsb::WorkloadB(0.001)},
      {"range_sel_0.01", ycsb::WorkloadB(0.01)},
      {"range_sel_0.1", ycsb::WorkloadB(0.1)},
  };
  const std::vector<DesignKind> designs = {
      DesignKind::kCoarse, DesignKind::kFine, DesignKind::kHybrid};

  for (const Subplot& subplot : subplots) {
    std::printf("\n# subplot: %s\n", subplot.label);
    PrintRow({"clients", "coarse-grained", "fine-grained", "hybrid"});

    // One experiment per design, reused across the (read-only) sweep.
    std::vector<Experiment> experiments;
    for (DesignKind design : designs) {
      ExperimentConfig config;
      config.design = design;
      config.num_keys = keys;
      config.skewed_data = skewed_data;
      experiments.push_back(MakeExperiment(config));
    }

    for (uint32_t n : clients) {
      std::vector<std::string> row = {Num(n)};
      for (size_t d = 0; d < designs.size(); ++d) {
        ycsb::RunConfig run;
        run.num_clients = n;
        run.mix = subplot.mix;
        run.duration = DurationFor(subplot.mix, keys, n);
        run.warmup = run.duration / 10;
        const ycsb::RunResult result = experiments[d].Run(run);
        double value = 0;
        switch (metric) {
          case SweepMetric::kThroughput:
            value = result.ops_per_sec;
            break;
          case SweepMetric::kBandwidth:
            value = result.gb_per_sec;
            break;
          case SweepMetric::kLatency:
            value = result.latency.mean() / 1e9;  // seconds, as in Fig 13/14
            break;
        }
        row.push_back(Num(value));
      }
      PrintRow(row);
    }
  }
}

void PrintPreamble(const std::string& figure, const std::string& title,
                   const std::string& note) {
  std::printf("# %s — %s\n", figure.c_str(), title.c_str());
  if (!note.empty()) std::printf("# %s\n", note.c_str());
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : "\t", cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string Num(double v) {
  char buf[64];
  if (v == static_cast<uint64_t>(v) && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, static_cast<uint64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// Serialises `entries` (dotted key paths → literals) as one object,
/// nesting on the first path segment and preserving first-seen order.
std::string SerializeObject(
    const std::vector<std::pair<std::string, std::string>>& entries,
    int indent) {
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, std::string>>>>
      groups;
  for (const auto& [key, literal] : entries) {
    const size_t dot = key.find('.');
    const std::string head = key.substr(0, dot);
    const std::string rest =
        dot == std::string::npos ? "" : key.substr(dot + 1);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == head; });
    if (it == groups.end()) {
      groups.push_back({head, {}});
      it = groups.end() - 1;
    }
    it->second.push_back({rest, literal});
  }
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "{\n";
  for (size_t i = 0; i < groups.size(); ++i) {
    out += pad + "  " + JsonQuote(groups[i].first) + ": ";
    const auto& members = groups[i].second;
    if (members.size() == 1 && members[0].first.empty()) {
      out += members[0].second;
    } else {
      out += SerializeObject(members, indent + 2);
    }
    if (i + 1 < groups.size()) out += ",";
    out += "\n";
  }
  out += pad + "}";
  return out;
}

}  // namespace

void JsonReport::Set(const std::string& key, double value) {
  char buf[64];
  if (value == static_cast<double>(static_cast<int64_t>(value))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<int64_t>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  }
  entries_.emplace_back(key, buf);
}

void JsonReport::Set(const std::string& key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  entries_.emplace_back(key, buf);
}

void JsonReport::Set(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, JsonQuote(value));
}

std::string JsonReport::ToString() const {
  return SerializeObject(entries_, 0);
}

bool JsonReport::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string body = ToString() + "\n";
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "short write to %s\n", path.c_str());
  return ok;
}

void EmitMetrics(const metrics::Delta& counters, JsonReport& report,
                 const std::string& prefix) {
  for (const auto& family : counters.families()) {
    for (const auto& [label_values, value] : family.values) {
      std::string key = prefix + "." + family.name;
      if (!label_values.empty()) {
        key += ".";
        for (size_t i = 0; i < label_values.size(); ++i) {
          if (i > 0) key += ",";
          key += family.label_keys[i] + "=" + label_values[i];
        }
      }
      if (family.kind == metrics::MetricKind::kHistogram) {
        report.Set(key + ".count", value);
        for (const auto& [hist_values, hist] : family.hists) {
          if (hist_values == label_values) {
            report.Set(key + ".mean_ns", hist.mean());
            report.Set(key + ".p99_ns", hist.Quantile(0.99));
            break;
          }
        }
      } else {
        report.Set(key, value);
      }
    }
  }
}

bool MaybeWriteJson(const ArgParser& args, const JsonReport& report) {
  if (!args.Has("json")) return true;
  return report.WriteTo(args.GetString("json", ""));
}

}  // namespace namtree::bench
