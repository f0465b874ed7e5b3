// Differential testing: a single client replays the same random operation
// sequence (inserts, deletes, updates, lookups, scans, periodic GC) against
// every NAM index-design instance in the simulator (CG range and hash,
// FG, hybrid, CG1S range and hash) and a std::multimap reference; every
// query result must match the model exactly, and the final full scans of
// all designs must be identical.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "index/coarse_grained.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "nam/cluster.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using btree::Value;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

struct Op {
  enum Kind { kInsert, kDelete, kLookup, kScan, kGc, kUpdate, kLookupAll }
      kind;
  Key key = 0;
  Key hi = 0;
  Value value = 0;
};

std::vector<Op> MakeTrace(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Op> trace;
  for (int i = 0; i < n; ++i) {
    Op op;
    const double a = rng.NextDouble();
    op.key = rng.NextBelow(4000);
    if (a < 0.35) {
      op.kind = Op::kInsert;
      op.value = rng.Next() >> 1;
    } else if (a < 0.48) {
      op.kind = Op::kDelete;
    } else if (a < 0.58) {
      op.kind = Op::kUpdate;
      op.value = rng.Next() >> 1;
    } else if (a < 0.66) {
      op.kind = Op::kLookupAll;
    } else if (a < 0.82) {
      op.kind = Op::kLookup;
    } else if (a < 0.99) {
      op.kind = Op::kScan;
      op.hi = op.key + 1 + rng.NextBelow(200);
    } else {
      op.kind = Op::kGc;
    }
    trace.push_back(op);
  }
  return trace;
}

Task<> Replay(DistributedIndex& index, ClientContext& ctx,
              const std::vector<Op>& trace, std::vector<KV>* final_scan) {
  std::multimap<Key, Value> model;
  for (const Op& op : trace) {
    switch (op.kind) {
      case Op::kInsert: {
        EXPECT_TRUE((co_await index.Insert(ctx, op.key, op.value)).ok());
        model.emplace(op.key, op.value);
        break;
      }
      case Op::kDelete: {
        const bool deleted = (co_await index.Delete(ctx, op.key)).ok();
        // Deletes tombstone the first live duplicate: erase lower_bound.
        auto it = model.lower_bound(op.key);
        const bool exists = it != model.end() && it->first == op.key;
        EXPECT_EQ(deleted, exists) << "delete(" << op.key << ")";
        if (exists) model.erase(it);
        break;
      }
      case Op::kLookup: {
        const LookupResult r = co_await index.Lookup(ctx, op.key);
        EXPECT_EQ(r.found, model.count(op.key) > 0)
            << "lookup(" << op.key << ") on " << index.name();
        if (r.found) {
          // The returned value must be one of the live values of the key.
          bool matches = false;
          for (auto [it, end] = model.equal_range(op.key); it != end; ++it) {
            matches |= (it->second == r.value);
          }
          EXPECT_TRUE(matches) << "lookup(" << op.key << ") stale value";
        }
        break;
      }
      case Op::kScan: {
        std::vector<KV> out;
        const uint64_t n = co_await index.Scan(ctx, op.key, op.hi, &out);
        const uint64_t expected =
            std::distance(model.lower_bound(op.key), model.lower_bound(op.hi));
        EXPECT_EQ(n, expected)
            << "scan[" << op.key << "," << op.hi << ") on " << index.name();
        break;
      }
      case Op::kGc: {
        (void)co_await index.GarbageCollect(ctx);
        break;
      }
      case Op::kUpdate: {
        const bool updated =
            (co_await index.Update(ctx, op.key, op.value)).ok();
        // The index updates the *first live* duplicate in place; page
        // order preserves insertion order of equal keys, and so does
        // std::multimap, so mutating lower_bound's value mirrors it.
        auto it = model.lower_bound(op.key);
        const bool exists = it != model.end() && it->first == op.key;
        EXPECT_EQ(updated, exists) << "update(" << op.key << ")";
        if (exists) it->second = op.value;
        break;
      }
      case Op::kLookupAll: {
        std::vector<Value> values;
        const uint64_t n = co_await index.LookupAll(ctx, op.key, &values);
        EXPECT_EQ(n, model.count(op.key))
            << "lookup_all(" << op.key << ") on " << index.name();
        break;
      }
    }
  }
  (void)co_await index.Scan(ctx, 0, btree::kInfinityKey, final_scan);
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

TEST_P(DifferentialTest, AllDesignsMatchTheModel) {
  const auto trace = MakeTrace(GetParam(), 3000);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 1000; ++i) data.push_back({i * 4, i});

  std::vector<std::vector<KV>> final_scans;
  for (int design = 0; design < 6; ++design) {
    rdma::FabricConfig fabric_config;
    fabric_config.num_memory_servers = 4;
    Cluster cluster(fabric_config, 64 << 20);
    IndexConfig index_config;
    index_config.page_size = 256;
    index_config.head_node_interval = 4;
    std::unique_ptr<DistributedIndex> index;
    switch (design) {
      case 0:
        index_config.partition = PartitionKind::kRange;
        index = std::make_unique<CoarseGrainedIndex>(cluster, index_config);
        break;
      case 1:
        index_config.partition = PartitionKind::kHash;
        index = std::make_unique<CoarseGrainedIndex>(cluster, index_config);
        break;
      case 2:
        index = std::make_unique<FineGrainedIndex>(cluster, index_config);
        break;
      case 3:
        index = std::make_unique<HybridIndex>(cluster, index_config);
        break;
      case 4:
        index =
            std::make_unique<CoarseOneSidedIndex>(cluster, index_config);
        break;
      default:
        index_config.partition = PartitionKind::kHash;
        index =
            std::make_unique<CoarseOneSidedIndex>(cluster, index_config);
        break;
    }
    ASSERT_TRUE(index->BulkLoad(data).ok());

    ClientContext ctx(0, cluster.fabric(), index_config.page_size, 1);
    std::vector<KV> final_scan;
    // The initial data is part of the model: account for it by replaying
    // on top and comparing scans that exclude nothing. (The model inside
    // Replay starts empty, so seed it through the trace instead: all
    // queries compare against model + base data via the scan count below.)
    // Simpler and fully strict: delete the base data up front.
    struct Wipe {
      static Task<> Go(DistributedIndex& index, ClientContext& ctx,
                       const std::vector<KV>& data) {
        for (const KV& kv : data) {
          EXPECT_TRUE((co_await index.Delete(ctx, kv.key)).ok());
        }
        (void)co_await index.GarbageCollect(ctx);
      }
    };
    Spawn(cluster.simulator(), Wipe::Go(*index, ctx, data));
    cluster.simulator().Run();

    Spawn(cluster.simulator(), Replay(*index, ctx, trace, &final_scan));
    cluster.simulator().Run();
    final_scans.push_back(std::move(final_scan));
  }

  // All six design instances end in the same logical state.
  for (size_t d = 1; d < final_scans.size(); ++d) {
    ASSERT_EQ(final_scans[d].size(), final_scans[0].size()) << "design " << d;
    for (size_t i = 0; i < final_scans[0].size(); ++i) {
      EXPECT_EQ(final_scans[d][i].key, final_scans[0][i].key);
      EXPECT_EQ(final_scans[d][i].value, final_scans[0][i].value);
    }
  }
}

}  // namespace
}  // namespace namtree::index
