#include "probes.h"

#include <vector>

#include "btree/page.h"
#include "common/random.h"
#include "index/fine_grained.h"
#include "rdma/remote_ptr.h"
#include "sim/task.h"

namespace perfbench {

namespace {

/// Keeps the probes' results observable so no loop is optimised away.
volatile uint64_t g_sink = 0;

// namtree-lint: safe-coro-ref(the simulator outlives the loop: ProbeBareEventNs blocks on Run())
sim::Task<> DelayLoop(sim::Simulator& simulator, SimTime step, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await sim::Delay(simulator, step);
}

// namtree-lint: safe-coro-ref(the cluster outlives the loop: ProbeVerbNs blocks on Run())
sim::Task<> VerbLoop(nam::Cluster& cluster, int rounds) {
  rdma::Fabric& fabric = cluster.fabric();
  const rdma::RemotePtr page = rdma::RemotePtr::Make(1, 4096);
  std::vector<uint8_t> buf(1024);
  uint64_t word = 0;
  for (int i = 0; i < rounds; ++i) {
    (void)co_await fabric.Read(0, page, buf.data(), 1024);
    const rdma::AtomicResult cas =
        co_await fabric.CompareAndSwap(0, page, word, word + 1);
    word = cas.value + 1;
  }
  g_sink = g_sink + word + buf[8];
}

}  // namespace

double ProbeGeneratorNs(const Workload& workload, uint64_t seed) {
  constexpr int kDraws = 2'000'000;
  ycsb::WorkloadGenerator gen(workload.mix, kNumKeys, workload.dist);
  Rng rng(seed);
  uint64_t acc = 0;
  const double t0 = ThreadCpuSeconds();
  for (int i = 0; i < kDraws; ++i) acc += gen.Next(rng).key;
  const double cpu = ThreadCpuSeconds() - t0;
  g_sink = g_sink + acc;
  return cpu * 1e9 / kDraws;
}

double ProbeBareEventNs() {
  constexpr int kLoops = 64;
  constexpr int kRounds = 20'000;
  sim::Simulator simulator;
  for (int i = 0; i < kLoops; ++i) {
    sim::Spawn(simulator, DelayLoop(simulator, 1 + i % 7, kRounds));
  }
  const double t0 = ThreadCpuSeconds();
  simulator.Run();
  const double cpu = ThreadCpuSeconds() - t0;
  return cpu * 1e9 / static_cast<double>(simulator.events_processed());
}

double ProbeVerbNs() {
  constexpr int kRounds = 100'000;
  rdma::FabricConfig config;
  config.num_memory_servers = 2;
  nam::Cluster cluster(config, 1 << 20);
  cluster.fabric().SetNumClients(1);
  sim::Spawn(cluster.simulator(), VerbLoop(cluster, kRounds));
  const double t0 = ThreadCpuSeconds();
  cluster.simulator().Run();
  const double cpu = ThreadCpuSeconds() - t0;
  return cpu * 1e9 / (2.0 * kRounds);
}

double ProbePageSearchNs(Deployment& fg, uint64_t seed) {
  constexpr int kDescents = 500'000;
  constexpr int kMaxHops = 64;
  const auto& idx = static_cast<const index::FineGrainedIndex&>(*fg.index);
  rdma::Fabric& fabric = fg.cluster->fabric();
  const uint32_t page_size = idx.page_size();
  const auto page_at = [&](uint64_t raw) {
    const rdma::RemotePtr ptr(raw);
    return btree::PageView(fabric.region(ptr.server_id())->at(ptr.offset()),
                           page_size);
  };
  Rng rng(seed);
  uint64_t searches = 0;
  uint64_t acc = 0;
  const double t0 = ThreadCpuSeconds();
  for (int i = 0; i < kDescents; ++i) {
    const btree::Key key = rng.NextBelow(kNumKeys) * ycsb::kKeyStride;
    btree::PageView page = page_at(idx.root().raw());
    for (int hop = 0; hop < kMaxHops && !page.is_leaf(); ++hop) {
      if (page.NeedsChase(key)) {
        page = page_at(page.right_sibling());
        continue;
      }
      page = page_at(page.InnerChildFor(key));
      ++searches;
    }
    acc += page.LeafLowerBound(key);
    ++searches;
  }
  const double cpu = ThreadCpuSeconds() - t0;
  g_sink = g_sink + acc;
  return cpu * 1e9 / static_cast<double>(searches);
}

}  // namespace perfbench
