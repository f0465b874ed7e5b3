#include "ycsb/runner.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/task.h"
#include "ycsb/op_stats.h"

namespace namtree::ycsb {

namespace {

using index::DistributedIndex;
using nam::ClientContext;

struct SharedState {
  SimTime warmup_end = 0;
  SimTime deadline = 0;
  RunResult result;
  /// Registry cells for the op accounting ("ycsb.ops"{op, class} and
  /// "ycsb.op_latency"{op}), created on first use.
  internal::OpStats stats;
  /// Clients crash-injected away during the run ("ycsb.dead_clients").
  metrics::Counter dead_clients;
};

/// Records one completed operation if it fell inside the measurement
/// window. Counts land in the registry — one "ycsb.ops" bump per {op type,
/// status class}, with StatusClassOf as the single status -> class mapping
/// — so RunResult's ops()/failed_ops()/failures() views and the bench
/// --json emitter all read the same cells.
void Account(SharedState& state, OpType type, const Status& status,
             SimTime start, SimTime end) {
  if (start < state.warmup_end || end > state.deadline) return;
  const uint64_t latency = static_cast<uint64_t>(end - start);
  state.result.latency.Add(latency);
  auto& per_type = state.result.per_type[static_cast<int>(type)];
  per_type.count++;
  per_type.latency.Add(latency);
  state.stats.OpCell(type, StatusClassOf(status.code())).Inc();
  state.stats.LatencyCell(type).Observe(latency);
}

// One closed-loop lane (paper §6.1): each operation completes before the
// lane issues the next. With `multiget_batch` > 1 the lane gathers up to
// that many consecutive point lookups into one MultiGet; the first other
// operation ends the gather and runs by itself after the batch, so the
// lane's issue order is kept.
// namtree-lint: safe-coro-ref(every referent lives in the caller's frame, which blocks on simulator.Run() until all spawned tasks finish)
sim::Task<> ClientLoop(nam::Cluster& cluster, DistributedIndex& index,
                       WorkloadGenerator& gen, ClientContext& ctx,
                       SharedState& state, uint32_t multiget_batch,
                       bool primary_lane) {
  sim::Simulator& simulator = cluster.simulator();
  std::vector<btree::Key> keys;
  std::vector<index::LookupResult> results;
  while (simulator.now() < state.deadline) {
    // A crash-injected client issues no further operations; its in-flight
    // verbs were dropped by the fabric. Only the first lane of a client
    // reports the death, so `dead_clients` counts clients.
    if (!cluster.fabric().ClientAlive(ctx.client_id())) {
      if (primary_lane) state.dead_clients.Inc();
      break;
    }
    Operation op = gen.Next(ctx.rng());
    if (multiget_batch > 1 && op.type == OpType::kPoint) {
      keys.assign(1, op.key);
      bool flushed = false;
      while (keys.size() < multiget_batch) {
        op = gen.Next(ctx.rng());
        if (op.type != OpType::kPoint) {
          flushed = true;
          break;
        }
        keys.push_back(op.key);
      }
      const SimTime start = simulator.now();
      results.assign(keys.size(), index::LookupResult{});
      co_await index.MultiGet(ctx, keys, results.data());
      const SimTime end = simulator.now();
      // Every lookup in the batch observes the batch's latency.
      for (const index::LookupResult& r : results) {
        Account(state, OpType::kPoint, r.status, start, end);
      }
      if (!flushed) continue;
    }
    const SimTime start = simulator.now();
    Status status;
    // The runner's span is the outermost one: the index entry points' own
    // spans go inert under it, so each closed-loop op traces exactly once,
    // labeled by its workload op type.
    metrics::OpSpan span(ctx.trace(), OpTypeName(op.type));
    switch (op.type) {
      case OpType::kPoint:
        // A clean miss carries an OK status; only degraded-mode failures
        // (kUnavailable/kTimedOut) count as failed operations.
        status = (co_await index.Lookup(ctx, op.key)).status;
        break;
      case OpType::kRange:
        // A truncated scan reports how it degraded (kUnavailable vs
        // kTimedOut) so the FailureBreakdown attributes it correctly.
        (void)co_await index.Scan(ctx, op.key, op.hi, nullptr, &status);
        break;
      case OpType::kInsert:
        status = co_await index.Insert(ctx, op.key, op.value);
        break;
      case OpType::kUpdate:
        status = co_await index.Update(ctx, op.key, op.value);
        break;
      case OpType::kDelete:
        status = co_await index.Delete(ctx, op.key);
        break;
    }
    Account(state, op.type, status, start, simulator.now());
  }
}

// namtree-lint: safe-coro-ref(every referent lives in the caller's frame, which blocks on simulator.Run() until all spawned tasks finish)
sim::Task<> GcLoop(nam::Cluster& cluster, DistributedIndex& index,
                   ClientContext& ctx, SharedState& state,
                   SimTime interval) {
  sim::Simulator& simulator = cluster.simulator();
  while (simulator.now() + interval < state.deadline) {
    co_await sim::Delay(simulator, interval);
    (void)co_await index.GarbageCollect(ctx);
  }
}

// namtree-lint: safe-coro-ref(every referent lives in the caller's frame, which blocks on simulator.Run() until all spawned tasks finish)
sim::Task<> WarmupMarker(nam::Cluster& cluster, SharedState& state) {
  co_await sim::DelayUntil(cluster.simulator(), state.warmup_end);
  cluster.fabric().ResetStats();
}

}  // namespace

RunResult RunWorkload(nam::Cluster& cluster, DistributedIndex& index,
                      uint64_t num_keys, const RunConfig& config) {
  sim::Simulator& simulator = cluster.simulator();
  cluster.fabric().SetNumClients(config.num_clients);
  metrics::MetricRegistry& registry = cluster.fabric().metrics();

  SharedState state;
  state.warmup_end = simulator.now() + config.warmup;
  state.deadline = state.warmup_end + config.duration;
  state.stats.registry = &registry;
  registry.RegisterCounter(state.dead_clients, "ycsb.dead_clients", {},
                           "clients crash-injected away during the run");

  // The run's measurement window over the (fabric-lifetime) registry:
  // everything this run's contexts do — warmup included, matching the
  // historical per-context sums — reads as end minus begin. Cells created
  // below (per-client counters, op cells) count from zero; residue of
  // earlier runs on the same fabric is in `begin` and subtracts out.
  const metrics::Snapshot begin = registry.Collect();

  WorkloadGenerator gen(config.mix, num_keys, config.dist, config.zipf_theta);

  std::vector<std::unique_ptr<ClientContext>> contexts;
  contexts.reserve(config.num_clients);
  for (uint32_t c = 0; c < config.num_clients; ++c) {
    contexts.push_back(std::make_unique<ClientContext>(
        c, cluster.fabric(), index.page_size(), config.seed));
  }

  sim::Spawn(simulator, WarmupMarker(cluster, state));
  // `pipeline_depth` lanes per client: the extra lanes share the client id
  // (and therefore its fabric poller, lock-holder identity and cache) but
  // carry their own scratch buffers and rng stream, so `depth` independent
  // operations overlap per client machine. RPC call and dedup ids are
  // fabric-global, so RPC designs run lanes the same way.
  const uint32_t depth = std::max<uint32_t>(1, config.pipeline_depth);
  for (uint32_t c = 0; c < config.num_clients; ++c) {
    for (uint32_t lane = 0; lane < depth; ++lane) {
      if (lane > 0) {
        contexts.push_back(std::make_unique<ClientContext>(
            c, cluster.fabric(), index.page_size(),
            config.seed ^ (0x9E3779B97F4A7C15ull * lane)));
      }
      ClientContext& ctx = lane == 0 ? *contexts[c] : *contexts.back();
      sim::Spawn(simulator,
                 ClientLoop(cluster, index, gen, ctx, state,
                            config.multiget_batch, /*primary_lane=*/lane == 0));
    }
  }
  if (config.gc_interval > 0) {
    // The paper runs epoch GC in the background; model it from client 0's
    // machine with a dedicated context.
    contexts.push_back(std::make_unique<ClientContext>(
        0, cluster.fabric(), index.page_size(), config.seed ^ 0x6C6CULL));
    sim::Spawn(simulator, GcLoop(cluster, index, *contexts.back(), state,
                                 config.gc_interval));
  }
  if (config.trace_ops) {
    for (const auto& ctx : contexts) {
      ctx->trace().Enable(config.trace_ring, config.trace_outliers);
    }
  }

  simulator.Run();

  RunResult& result = state.result;
  result.counters = metrics::Delta::Between(begin, registry.Collect());
  result.seconds = static_cast<double>(config.duration) / kSecond;
  result.ops_per_sec =
      result.seconds > 0 ? static_cast<double>(result.ops()) / result.seconds
                         : 0;
  // Server byte totals stay materialized from the fabric's per-server
  // stats (not viewed through the window Delta): the reading is "bytes
  // since the last ResetStats" — the warmup marker's reset — exactly as
  // before the registry existed.
  for (uint32_t s = 0; s < cluster.num_memory_servers(); ++s) {
    const auto stats = cluster.fabric().server_stats(s);
    result.per_server_bytes.push_back(stats.tx_bytes + stats.rx_bytes);
    result.server_bytes += stats.tx_bytes + stats.rx_bytes;
  }
  result.gb_per_sec =
      static_cast<double>(result.server_bytes) / result.seconds / 1e9;
  if (config.trace_ops) {
    for (const auto& ctx : contexts) {
      const std::string dump = ctx->trace().DumpOutliers();
      if (dump.empty()) continue;
      result.trace_outliers += "client " +
                               std::to_string(ctx->client_id()) + ":\n" +
                               dump;
    }
  }
  return result;
}

RunResult::FailureBreakdown RunResult::failures() const {
  const auto of = [this](StatusClass cls) {
    return counters.Value("ycsb.ops", "class", StatusClassName(cls));
  };
  FailureBreakdown b;
  b.not_found = of(StatusClass::kNotFound);
  b.unavailable = of(StatusClass::kUnavailable);
  b.timed_out = of(StatusClass::kTimedOut);
  b.out_of_memory = of(StatusClass::kOutOfMemory);
  b.aborted = of(StatusClass::kAborted);
  b.other = of(StatusClass::kOther);
  return b;
}

}  // namespace namtree::ycsb
