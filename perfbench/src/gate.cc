#include "gate.h"

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "sim/task.h"

namespace perfbench {

namespace {

constexpr uint32_t kSampleLookups = 2000;
constexpr uint32_t kSampleRanges = 64;
constexpr uint64_t kSweepKeys = 1 << 16;  ///< dataset keys per sweep scan

std::string Describe(const char* what, btree::Key key, uint64_t got,
                     uint64_t want) {
  return std::string(what) + " at key " + std::to_string(key) + ": got " +
         std::to_string(got) + ", want " + std::to_string(want);
}

/// Checks one scan's output against the closed form over dataset indices
/// [first, last): every preloaded key exactly once with its value, in key
/// order; keys between them only when the workload inserts.
std::string CheckRange(const std::vector<btree::KV>& out, uint64_t count,
                       uint64_t first, uint64_t last, bool inserts) {
  if (count != out.size()) {
    return Describe("scan count disagrees with its output",
                    first * ycsb::kKeyStride, count, out.size());
  }
  uint64_t next = first;
  for (const btree::KV& kv : out) {
    if (kv.key < first * ycsb::kKeyStride ||
        kv.key >= last * ycsb::kKeyStride) {
      return Describe("scan returned a key outside its range", kv.key,
                      kv.key, first * ycsb::kKeyStride);
    }
    if (kv.key % ycsb::kKeyStride != 0) {
      if (!inserts) {
        return Describe("scan returned a key never loaded", kv.key, kv.key,
                        next * ycsb::kKeyStride);
      }
      continue;
    }
    if (kv.key != next * ycsb::kKeyStride) {
      return Describe("scan missed a preloaded key", next * ycsb::kKeyStride,
                      kv.key, next * ycsb::kKeyStride);
    }
    if (kv.value != next) {
      return Describe("scan returned a wrong value", kv.key, kv.value, next);
    }
    ++next;
  }
  if (next != last) {
    return Describe("scan ended before its last preloaded key",
                    next * ycsb::kKeyStride, next, last);
  }
  return {};
}

// namtree-lint: safe-coro-ref(every referent lives in CheckDeployment's frame, which blocks on simulator.Run() until this task finishes)
sim::Task<> GateClient(index::DistributedIndex& idx, nam::ClientContext& ctx,
                       uint64_t num_keys, bool inserts, std::string* error) {
  Rng& rng = ctx.rng();
  for (uint32_t i = 0; i < kSampleLookups && error->empty(); ++i) {
    const uint64_t n = rng.NextBelow(num_keys);
    const btree::Key key = n * ycsb::kKeyStride;
    const index::LookupResult hit = co_await idx.Lookup(ctx, key);
    if (!hit.status.ok() || !hit.found) {
      *error = Describe("lookup missed a preloaded key", key, 0, n);
    } else if (hit.value != n) {
      *error = Describe("lookup returned a wrong value", key, hit.value, n);
    } else if (!inserts) {
      const btree::Key gap = key + 1 + rng.NextBelow(ycsb::kKeyStride - 1);
      const index::LookupResult miss = co_await idx.Lookup(ctx, gap);
      if (!miss.status.ok() || miss.found) {
        *error = Describe("lookup found a key never loaded", gap, miss.value,
                          0);
      }
    }
  }
  std::vector<btree::KV> out;
  const uint64_t span = std::max<uint64_t>(1, num_keys / 100);
  for (uint32_t i = 0; i < kSampleRanges && error->empty(); ++i) {
    const uint64_t first = rng.NextBelow(num_keys - span + 1);
    out.clear();
    Status status;
    const uint64_t count =
        co_await idx.Scan(ctx, first * ycsb::kKeyStride,
                          (first + span) * ycsb::kKeyStride, &out, &status);
    *error = status.ok() ? CheckRange(out, count, first, first + span, inserts)
                         : "sampled scan failed: " + status.ToString();
  }
  for (uint64_t first = 0; first < num_keys && error->empty();
       first += kSweepKeys) {
    const uint64_t last = std::min(num_keys, first + kSweepKeys);
    out.clear();
    Status status;
    const uint64_t count =
        co_await idx.Scan(ctx, first * ycsb::kKeyStride,
                          last * ycsb::kKeyStride, &out, &status);
    *error = status.ok() ? CheckRange(out, count, first, last, inserts)
                         : "sweep scan failed: " + status.ToString();
  }
}

}  // namespace

std::string CheckDeployment(Deployment& deployment, const Workload& workload,
                            uint64_t num_keys, uint64_t seed,
                            uint64_t failed_ops,
                            index::IndexInspector::Report* report) {
  const index::IndexInspector::Report inspected = Inspect(deployment);
  if (report != nullptr) *report = inspected;
  if (!inspected.ok()) {
    return "IndexInspector: " + inspected.violations.front();
  }
  if (failed_ops != 0) {
    return std::to_string(failed_ops) + " workload operations failed";
  }
  nam::Cluster& cluster = *deployment.cluster;
  nam::ClientContext ctx(0, cluster.fabric(), deployment.index->page_size(),
                         seed ^ 0x6A7E6A7EULL);
  std::string error;
  sim::Spawn(cluster.simulator(),
             GateClient(*deployment.index, ctx, num_keys,
                        workload.mix.insert > 0, &error));
  cluster.simulator().Run();
  return error;
}

}  // namespace perfbench
