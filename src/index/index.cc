#include "index/index.h"

namespace namtree::index {

sim::Task<void> DistributedIndex::MultiGet(nam::ClientContext& ctx,
                                           std::span<const btree::Key> keys,
                                           LookupResult* results) {
  metrics::OpSpan span(ctx.trace(), "multiget");
  // Sequential fallback — the semantic contract every override must match.
  for (size_t i = 0; i < keys.size(); ++i) {
    results[i] = co_await Lookup(ctx, keys[i]);
  }
}

}  // namespace namtree::index
