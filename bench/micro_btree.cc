// Google-benchmark microbenchmarks for the node algorithms every design
// shares (btree::PageView): leaf search, range collect, insert/compact and
// split, measured in real time.

#include <benchmark/benchmark.h>

#include <vector>

#include "btree/page.h"
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

}  // namespace
}  // namespace namtree::btree

BENCHMARK_MAIN();
