#include "traced_run.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "designs.h"
#include "sim/task.h"

namespace perfbench {

namespace {

using ycsb::Operation;
using ycsb::OpType;

struct Window {
  SimTime warmup_end = 0;
  SimTime deadline = 0;
  uint64_t ops = 0;
  Histogram latency;
  double verb_ns = 0;
  /// (latency, verbs) of every window op, for the tail statistics.
  std::vector<std::pair<SimTime, uint64_t>> by_latency;

  bool Contains(SimTime start, SimTime end) const {
    return start >= warmup_end && end <= deadline;
  }
};

/// Virtual time inside the union of the span's verb windows.
SimTime VerbCoverage(const metrics::SpanRecord& span) {
  std::vector<std::pair<SimTime, SimTime>> spans;
  spans.reserve(span.events.size());
  for (const metrics::TraceEvent& e : span.events) {
    spans.emplace_back(std::max(e.start, span.start),
                       std::min(e.finish, span.finish));
  }
  std::sort(spans.begin(), spans.end());
  SimTime covered = 0;
  SimTime reach = span.start;
  for (const auto& [lo, hi] : spans) {
    const SimTime from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return covered;
}

// Mirrors ycsb::RunWorkload's single-lane ClientLoop operation for
// operation, so the traced run replays the untraced run's schedule; the
// only addition is the OpSpan around each operation.
// namtree-lint: safe-coro-ref(every referent lives in RunTraced's frame, which blocks on simulator.Run() until all spawned tasks finish)
sim::Task<> TracedClient(nam::Cluster& cluster, index::DistributedIndex& idx,
                         ycsb::WorkloadGenerator& gen, nam::ClientContext& ctx,
                         Window& window) {
  sim::Simulator& simulator = cluster.simulator();
  while (simulator.now() < window.deadline) {
    if (!cluster.fabric().ClientAlive(ctx.client_id())) break;
    const Operation op = gen.Next(ctx.rng());
    const SimTime start = simulator.now();
    Status status;
    {
      metrics::OpSpan span(ctx.trace(), ycsb::OpTypeName(op.type));
      switch (op.type) {
        case OpType::kPoint:
          status = (co_await idx.Lookup(ctx, op.key)).status;
          break;
        case OpType::kRange:
          (void)co_await idx.Scan(ctx, op.key, op.hi, nullptr, &status);
          break;
        case OpType::kInsert:
          status = co_await idx.Insert(ctx, op.key, op.value);
          break;
        case OpType::kUpdate:
          status = co_await idx.Update(ctx, op.key, op.value);
          break;
        case OpType::kDelete:
          status = co_await idx.Delete(ctx, op.key);
          break;
      }
    }
    const SimTime end = simulator.now();
    if (window.Contains(start, end)) {
      window.ops++;
      window.latency.Add(static_cast<uint64_t>(end - start));
      // Summarise the span just closed; the ring keeps only the newest one.
      const metrics::SpanRecord& span = ctx.trace().ring().back();
      window.verb_ns += static_cast<double>(VerbCoverage(span));
      window.by_latency.emplace_back(span.duration(),
                                     span.events.size() + span.truncated);
    }
  }
}

// namtree-lint: safe-coro-ref(see TracedClient)
sim::Task<> WarmupMarker(nam::Cluster& cluster, SimTime at) {
  co_await sim::DelayUntil(cluster.simulator(), at);
  cluster.fabric().ResetStats();
}

}  // namespace

TracedRun RunTraced(nam::Cluster& cluster, index::DistributedIndex& idx,
                    uint64_t num_keys, const ycsb::RunConfig& config) {
  const double t0 = ThreadCpuSeconds();
  sim::Simulator& simulator = cluster.simulator();
  cluster.fabric().SetNumClients(config.num_clients);

  Window window;
  window.warmup_end = simulator.now() + config.warmup;
  window.deadline = window.warmup_end + config.duration;

  ycsb::WorkloadGenerator gen(config.mix, num_keys, config.dist,
                              config.zipf_theta);
  std::vector<std::unique_ptr<nam::ClientContext>> contexts;
  for (uint32_t c = 0; c < config.num_clients; ++c) {
    contexts.push_back(std::make_unique<nam::ClientContext>(
        c, cluster.fabric(), idx.page_size(), config.seed));
    // Each client loop summarises its span as it closes, so the ring only
    // needs the newest one.
    contexts.back()->trace().Enable(/*ring_capacity=*/1);
  }
  sim::Spawn(simulator, WarmupMarker(cluster, window.warmup_end));
  for (auto& ctx : contexts) {
    sim::Spawn(simulator, TracedClient(cluster, idx, gen, *ctx, window));
  }
  simulator.Run();

  TracedRun run;
  run.cpu_s = ThreadCpuSeconds() - t0;
  run.ops = window.ops;
  run.latency = window.latency;
  run.verb_ns = window.verb_ns;
  auto& by_latency = window.by_latency;
  if (!by_latency.empty()) {
    uint64_t verbs = 0;
    for (const auto& [latency, v] : by_latency) {
      run.latency_ns += static_cast<double>(latency);
      verbs += v;
    }
    run.verbs_per_op = static_cast<double>(verbs) / by_latency.size();
    // Slowest 1% (at least one op), ties broken towards more verbs.
    const size_t tail = std::max<size_t>(1, by_latency.size() / 100);
    std::partial_sort(by_latency.begin(), by_latency.begin() + tail,
                      by_latency.end(), std::greater<>());
    uint64_t tail_verbs = 0;
    for (size_t i = 0; i < tail; ++i) tail_verbs += by_latency[i].second;
    run.tail_verbs_per_op = static_cast<double>(tail_verbs) / tail;
  }
  return run;
}

}  // namespace perfbench
