// Google-benchmark microbenchmarks for the B-link-tree substrate: node-level
// operations (search, insert, split) and the thread-safe local tree (the
// coarse-grained memory-server component), measured in real time.

#include <benchmark/benchmark.h>

#include <vector>

#include "btree/local_tree.h"
#include "btree/page.h"
#include "btree/shared_nothing.h"
#include "common/random.h"

namespace namtree::btree {
namespace {

void BM_LeafLowerBound(benchmark::State& state) {
  std::vector<uint8_t> page(static_cast<size_t>(state.range(0)));
  PageView leaf(page.data(), static_cast<uint32_t>(page.size()));
  leaf.InitLeaf(kInfinityKey, 0);
  const uint32_t cap = leaf.leaf_capacity();
  for (uint32_t i = 0; i < cap; ++i) leaf.LeafInsert(i * 7, i);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(leaf.LeafLowerBound(rng.NextBelow(cap * 7)));
  }
}
BENCHMARK(BM_LeafLowerBound)->Arg(512)->Arg(1024)->Arg(4096);

// Count-only collect over a random range of a full leaf (what a range scan
// does per visited leaf). Arg 1 tombstones every 16th entry.
void BM_LeafCollectLive(benchmark::State& state) {
  std::vector<uint8_t> page(static_cast<size_t>(state.range(0)));
  PageView leaf(page.data(), static_cast<uint32_t>(page.size()));
  leaf.InitLeaf(kInfinityKey, 0);
  const uint32_t cap = leaf.leaf_capacity();
  for (uint32_t i = 0; i < cap; ++i) leaf.LeafInsert(i * 7, i);
  if (state.range(1) != 0) {
    for (uint32_t i = 0; i < cap; i += 16) leaf.LeafSetTombstone(i, true);
  }
  Rng rng(4);
  for (auto _ : state) {
    const Key lo = rng.NextBelow(cap * 7);
    benchmark::DoNotOptimize(
        leaf.LeafCollectLive(lo, lo + rng.NextBelow(cap * 7), nullptr));
  }
}
BENCHMARK(BM_LeafCollectLive)->ArgsProduct({{512, 1024, 4096}, {0, 1}});

void BM_LeafInsertAndCompact(benchmark::State& state) {
  std::vector<uint8_t> page(1024);
  PageView leaf(page.data(), 1024);
  Rng rng(2);
  for (auto _ : state) {
    leaf.InitLeaf(kInfinityKey, 0);
    const uint32_t cap = leaf.leaf_capacity();
    for (uint32_t i = 0; i < cap; ++i) {
      leaf.LeafInsert(rng.NextBelow(100000), i);
    }
    benchmark::DoNotOptimize(leaf.LeafCompact());
  }
  state.SetItemsProcessed(state.iterations() *
                          PageView::LeafCapacity(1024));
}
BENCHMARK(BM_LeafInsertAndCompact);

void BM_LeafSplit(benchmark::State& state) {
  std::vector<uint8_t> left(1024);
  std::vector<uint8_t> right(1024);
  PageView lv(left.data(), 1024);
  for (auto _ : state) {
    state.PauseTiming();
    lv.InitLeaf(kInfinityKey, 0);
    for (uint32_t i = 0; i < lv.leaf_capacity(); ++i) lv.LeafInsert(i, i);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        lv.SplitLeafInto(PageView(right.data(), 1024), 0x42));
  }
}
BENCHMARK(BM_LeafSplit);

void BM_LocalTreeLookup(benchmark::State& state) {
  LocalBLinkTree tree(1024);
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i * 2, i});
  (void)tree.BulkLoad(data);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(rng.NextBelow(n) * 2));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalTreeLookup)->Arg(100000)->Arg(1000000);

void BM_LocalTreeInsert(benchmark::State& state) {
  LocalBLinkTree tree(1024);
  Rng rng(4);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert(rng.Next() >> 16, i++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalTreeInsert);

void BM_LocalTreeScan(benchmark::State& state) {
  LocalBLinkTree tree(1024);
  const uint64_t n = 200000;
  std::vector<KV> data;
  for (uint64_t i = 0; i < n; ++i) data.push_back({i, i});
  (void)tree.BulkLoad(data);
  const uint64_t span = static_cast<uint64_t>(state.range(0));
  Rng rng(5);
  std::vector<KV> out;
  for (auto _ : state) {
    out.clear();
    const Key lo = rng.NextBelow(n - span);
    benchmark::DoNotOptimize(tree.Scan(lo, lo + span, &out));
  }
  state.SetItemsProcessed(state.iterations() * span);
}
BENCHMARK(BM_LocalTreeScan)->Arg(100)->Arg(10000);

void BM_SharedNothingLookup(benchmark::State& state) {
  // Section 7 shared-nothing adaptation on real threads: remote (mailbox)
  // vs local (fast path) lookups.
  const bool local = state.range(0) != 0;
  SharedNothingCluster cluster(2, 1, 1024);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 100000; ++i) data.push_back({i * 2, i});
  (void)cluster.BulkLoad(data);
  Rng rng(9);
  for (auto _ : state) {
    const Key k = rng.NextBelow(100000) * 2;
    benchmark::DoNotOptimize(
        cluster.Lookup(k, local ? cluster.NodeFor(k)
                                : SharedNothingCluster::kRemoteOnly));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(local ? "local_fast_path" : "mailbox_rpc");
}
BENCHMARK(BM_SharedNothingLookup)->Arg(0)->Arg(1);

}  // namespace
}  // namespace namtree::btree

BENCHMARK_MAIN();
