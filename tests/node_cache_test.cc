// Tests for the Appendix A.4 client-side node cache: LRU eviction, TTL
// expiry, and correctness of the cached index designs under
// cache-invalidating writes. The traversal engine gives every one-sided
// design a cache policy (FG / CG1S: inner-node images; hybrid: leaf
// routes), so each design gets its own hit-rate and staleness coverage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "index/coarse_one_sided.h"
#include "index/fine_grained.h"
#include "index/hybrid.h"
#include "index/inspector.h"
#include "index/node_cache.h"
#include "nam/cluster.h"
#include "rdma/remote_ptr.h"

namespace namtree::index {
namespace {

using btree::Key;
using btree::KV;
using nam::ClientContext;
using nam::Cluster;
using sim::Spawn;
using sim::Task;

TEST(NodeCacheTest, HitAfterPut) {
  ImagePool pool(64);
  NodeCache cache(pool, 4, 0);
  std::vector<uint8_t> image(64, 0xAB);
  EXPECT_EQ(cache.Get(1, 0), nullptr);
  cache.Put(1, image.data(), 0);
  const uint8_t* hit = cache.Get(1, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit[0], 0xAB);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(NodeCacheTest, LruEviction) {
  NodeCache cache(8, 2, 0);
  std::vector<uint8_t> image(8, 1);
  cache.Put(1, image.data(), 0);
  cache.Put(2, image.data(), 0);
  EXPECT_NE(cache.Get(1, 0), nullptr);  // 1 becomes MRU
  cache.Put(3, image.data(), 0);        // evicts 2
  EXPECT_NE(cache.Get(1, 0), nullptr);
  EXPECT_EQ(cache.Get(2, 0), nullptr);
  EXPECT_NE(cache.Get(3, 0), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(NodeCacheTest, TtlExpiry) {
  NodeCache cache(8, 4, 1000);
  std::vector<uint8_t> image(8, 1);
  cache.Put(1, image.data(), 0);
  EXPECT_NE(cache.Get(1, 999), nullptr);
  EXPECT_EQ(cache.Get(1, 1001), nullptr);
  EXPECT_EQ(cache.expirations(), 1u);
  // Re-put refreshes the epoch.
  cache.Put(1, image.data(), 2000);
  EXPECT_NE(cache.Get(1, 2500), nullptr);
}

TEST(NodeCacheTest, PutOverwritesInPlace) {
  NodeCache cache(8, 2, 0);
  std::vector<uint8_t> a(8, 1);
  std::vector<uint8_t> b(8, 2);
  cache.Put(1, a.data(), 0);
  cache.Put(1, b.data(), 50);
  const uint8_t* hit = cache.Get(1, 60);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit[0], 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(NodeCacheTest, InvalidateDrops) {
  NodeCache cache(8, 2, 0);
  std::vector<uint8_t> image(8, 1);
  cache.Put(1, image.data(), 0);
  cache.Invalidate(1);
  EXPECT_EQ(cache.Get(1, 0), nullptr);
  cache.Invalidate(42);  // no-op
  EXPECT_EQ(cache.invalidations(), 1u) << "only a dropped entry counts";
}

TEST(NodeCacheTest, PeekDoesNotMutate) {
  // Peek is the speculative predictor's read path: it must leave hit/miss/
  // expiration counters and the LRU order exactly as they were, and it
  // must return TTL-expired images (flagged) instead of erasing them.
  NodeCache cache(8, 3, 1000);
  std::vector<uint8_t> image(8, 7);
  cache.Put(1, image.data(), 0);
  cache.Put(2, image.data(), 0);
  cache.Put(3, image.data(), 0);
  const std::vector<uint64_t> lru_before = cache.LruKeys();

  bool expired = true;
  const uint8_t* hit = cache.Peek(2, 500, &expired);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(expired);
  EXPECT_EQ(hit[0], 7);
  EXPECT_EQ(cache.Peek(42, 500, &expired), nullptr);

  // A TTL-expired entry is still visible to Peek — and still in the cache.
  hit = cache.Peek(1, 2000, &expired);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(expired);
  EXPECT_EQ(cache.size(), 3u);

  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.expirations(), 0u);
  EXPECT_EQ(cache.LruKeys(), lru_before) << "Peek must not touch the LRU";

  // Get after the Peeks behaves as if they never happened.
  EXPECT_NE(cache.Get(2, 500), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.Get(1, 2000), nullptr);  // now it expires and erases
  EXPECT_EQ(cache.expirations(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(NodeCacheTest, ZeroCapacityDisables) {
  NodeCache cache(8, 0, 0);
  std::vector<uint8_t> image(8, 1);
  cache.Put(1, image.data(), 0);
  EXPECT_EQ(cache.Get(1, 0), nullptr);
}

// ---- Differential test against a reference model ----------------------------

/// The straightforward cache NodeCache must behave exactly like: a hash map
/// of heap images plus a std::list LRU (most recent first). Same contract:
/// TTL 0 never expires, Get erases an expired entry and counts it as a miss
/// and an expiration, Peek touches nothing, Put refreshes the epoch.
class ReferenceCache {
 public:
  ReferenceCache(uint32_t page_size, size_t capacity, SimTime ttl)
      : page_size_(page_size), capacity_(capacity), ttl_(ttl) {}

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expirations = 0;
  uint64_t invalidations = 0;
  size_t size() const { return entries_.size(); }
  std::vector<uint64_t> LruKeys() const {
    return std::vector<uint64_t>(lru_.begin(), lru_.end());
  }

  const uint8_t* Get(uint64_t key, SimTime now) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      misses++;
      return nullptr;
    }
    if (Expired(it->second, now)) {
      expirations++;
      misses++;
      lru_.erase(it->second.lru_pos);
      entries_.erase(it);
      return nullptr;
    }
    hits++;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.image.data();
  }

  const uint8_t* Peek(uint64_t key, SimTime now, bool* expired) const {
    auto it = entries_.find(key);
    *expired = it != entries_.end() && Expired(it->second, now);
    return it == entries_.end() ? nullptr : it->second.image.data();
  }

  void Put(uint64_t key, const uint8_t* image, SimTime now) {
    if (capacity_ == 0) return;
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (entries_.size() >= capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
      }
      lru_.push_front(key);
      it = entries_.emplace(key, Entry{{}, 0, lru_.begin()}).first;
    } else {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    }
    it->second.image.assign(image, image + page_size_);
    it->second.loaded_at = now;
  }

  void Invalidate(uint64_t key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    invalidations++;
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }

 private:
  struct Entry {
    std::vector<uint8_t> image;
    SimTime loaded_at = 0;
    std::list<uint64_t>::iterator lru_pos;
  };

  bool Expired(const Entry& e, SimTime now) const {
    return ttl_ > 0 && now - e.loaded_at > ttl_;
  }

  uint32_t page_size_;
  size_t capacity_;
  SimTime ttl_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lru_;
};

enum class KeyShape {
  kRemotePtr,  ///< inner-image keys: server id high, page-aligned offsets
  kRoute,      ///< leaf-route keys: i * 8
};

/// Runs `steps` seeded random Put/Get/Peek/Invalidate operations against
/// NodeCache and the reference model side by side, comparing returned
/// bytes, counters, size and LRU order after every step.
void RunDifferential(KeyShape shape, size_t capacity, SimTime ttl,
                     uint64_t seed, size_t steps) {
  SCOPED_TRACE(testing::Message()
               << "shape=" << (shape == KeyShape::kRoute ? "route" : "ptr")
               << " capacity=" << capacity << " ttl=" << ttl
               << " seed=" << seed);
  const uint32_t page_size = shape == KeyShape::kRoute ? 8 : 64;
  // Routes stay in the slots; page images are interned in a pool.
  ImagePool pool(page_size);
  const std::unique_ptr<NodeCache> owned =
      shape == KeyShape::kRoute
          ? std::make_unique<NodeCache>(page_size, capacity, ttl)
          : std::make_unique<NodeCache>(pool, capacity, ttl);
  NodeCache& cache = *owned;
  ReferenceCache model(page_size, capacity, ttl);
  Rng rng(seed);
  // A key universe twice the capacity (at least 8 keys), so hits, misses
  // and evictions all stay frequent.
  const uint64_t universe = std::max<uint64_t>(8, 2 * capacity);
  auto key_at = [&](uint64_t i) {
    if (shape == KeyShape::kRoute) return i * 8;
    return rdma::RemotePtr::Make(static_cast<uint32_t>(i % 4),
                                 (i / 4) * 1024 + 4096)
        .raw();
  };
  std::vector<uint8_t> image(page_size);
  SimTime now = 0;
  size_t peak_size = 0;
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    now += rng.NextBelow(ttl > 0 ? ttl / 4 : 100);
    const uint64_t key = key_at(rng.NextBelow(universe));
    const uint64_t op = rng.NextBelow(16);
    if (op < 7) {
      for (uint32_t b = 0; b < page_size; ++b) {
        image[b] = static_cast<uint8_t>(step * 31 + b);
      }
      cache.Put(key, image.data(), now);
      model.Put(key, image.data(), now);
    } else if (op < 12) {
      const uint8_t* got = cache.Get(key, now);
      const uint8_t* want = model.Get(key, now);
      ASSERT_EQ(got == nullptr, want == nullptr) << "Get(" << key << ")";
      if (got != nullptr) {
        ASSERT_EQ(std::memcmp(got, want, page_size), 0);
      }
    } else if (op < 15) {
      bool got_expired = false;
      bool want_expired = false;
      const uint8_t* got = cache.Peek(key, now, &got_expired);
      const uint8_t* want = model.Peek(key, now, &want_expired);
      ASSERT_EQ(got == nullptr, want == nullptr) << "Peek(" << key << ")";
      ASSERT_EQ(got_expired, want_expired);
      if (got != nullptr) {
        ASSERT_EQ(std::memcmp(got, want, page_size), 0);
      }
    } else {
      cache.Invalidate(key);
      model.Invalidate(key);
    }
    ASSERT_EQ(cache.hits(), model.hits);
    ASSERT_EQ(cache.misses(), model.misses);
    ASSERT_EQ(cache.expirations(), model.expirations);
    ASSERT_EQ(cache.invalidations(), model.invalidations);
    ASSERT_EQ(cache.size(), model.size());
    ASSERT_EQ(cache.LruKeys(), model.LruKeys());
    peak_size = std::max(peak_size, model.size());
  }
  // Without expiry the cache must have filled up, so LRU eviction ran.
  if (ttl == 0) {
    EXPECT_EQ(peak_size, capacity);
  }
}

TEST(NodeCacheTest, MatchesReferenceModelOnRemotePtrKeys) {
  for (const size_t capacity : {1, 2, 7, 4096}) {
    for (const SimTime ttl : {SimTime{0}, SimTime{1000}}) {
      const size_t steps = capacity > 64 ? 4 * capacity : 4000;
      RunDifferential(KeyShape::kRemotePtr, capacity, ttl, 11 + capacity,
                      steps);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(NodeCacheTest, MatchesReferenceModelOnRouteKeys) {
  for (const size_t capacity : {1, 2, 7, 4096}) {
    for (const SimTime ttl : {SimTime{0}, SimTime{1000}}) {
      const size_t steps = capacity > 64 ? 4 * capacity : 4000;
      RunDifferential(KeyShape::kRoute, capacity, ttl, 23 + capacity, steps);
      if (HasFatalFailure()) return;
    }
  }
}

// ---- Shared image pool -------------------------------------------------------

/// Two caches interning into one ImagePool, driven with interleaved random
/// Put/Get/Peek/Invalidate on overlapping keys, each against its own
/// reference model. Images are drawn from a few versions per key, so the
/// caches often hold the same bytes for a page and share its block. After
/// every step, whatever the other cache returned before the step must
/// still read the same: one cache's Put or Invalidate never changes the
/// bytes the other hands out.
void RunSharedDifferential(size_t capacity, SimTime ttl, uint64_t seed,
                           size_t steps) {
  SCOPED_TRACE(testing::Message() << "capacity=" << capacity << " ttl=" << ttl
                                  << " seed=" << seed);
  constexpr uint32_t kPage = 64;
  ImagePool pool(kPage);
  NodeCache caches[2] = {{pool, capacity, ttl}, {pool, capacity, ttl}};
  ReferenceCache models[2] = {{kPage, capacity, ttl}, {kPage, capacity, ttl}};
  Rng rng(seed);
  const uint64_t universe = std::max<uint64_t>(8, 2 * capacity);
  auto key_at = [](uint64_t i) {
    return rdma::RemotePtr::Make(static_cast<uint32_t>(i % 4),
                                 (i / 4) * 1024 + 4096)
        .raw();
  };
  std::vector<uint8_t> image(kPage);
  SimTime now = 0;
  size_t peak_shared = 0;  // most references beyond one per image
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    now += rng.NextBelow(ttl > 0 ? ttl / 4 : 100);
    const size_t c = rng.NextBelow(2);
    const size_t other = 1 - c;
    const uint64_t key = key_at(rng.NextBelow(universe));
    // What the other cache serves for this key before the step.
    bool other_expired = false;
    const uint8_t* other_ptr = caches[other].Peek(key, now, &other_expired);
    std::vector<uint8_t> other_bytes;
    if (other_ptr != nullptr) other_bytes.assign(other_ptr, other_ptr + kPage);

    const uint64_t op = rng.NextBelow(16);
    if (op < 7) {
      const uint64_t version = rng.NextBelow(3);
      for (uint32_t b = 0; b < kPage; ++b) {
        image[b] = static_cast<uint8_t>(key * 7 + version * 31 + b);
      }
      caches[c].Put(key, image.data(), now);
      models[c].Put(key, image.data(), now);
    } else if (op < 12) {
      const uint8_t* got = caches[c].Get(key, now);
      const uint8_t* want = models[c].Get(key, now);
      ASSERT_EQ(got == nullptr, want == nullptr) << "Get(" << key << ")";
      if (got != nullptr) {
        ASSERT_EQ(std::memcmp(got, want, kPage), 0);
      }
    } else if (op < 15) {
      bool got_expired = false;
      bool want_expired = false;
      const uint8_t* got = caches[c].Peek(key, now, &got_expired);
      const uint8_t* want = models[c].Peek(key, now, &want_expired);
      ASSERT_EQ(got == nullptr, want == nullptr) << "Peek(" << key << ")";
      ASSERT_EQ(got_expired, want_expired);
      if (got != nullptr) {
        ASSERT_EQ(std::memcmp(got, want, kPage), 0);
      }
    } else {
      caches[c].Invalidate(key);
      models[c].Invalidate(key);
    }

    if (other_ptr != nullptr) {
      // The other cache was not mutated, so its pointer is still valid.
      ASSERT_EQ(std::memcmp(other_ptr, other_bytes.data(), kPage), 0)
          << "cache " << c << "'s step changed cache " << other
          << "'s image of " << key;
    }
    for (size_t i = 0; i < 2; ++i) {
      SCOPED_TRACE(testing::Message() << "cache " << i);
      ASSERT_EQ(caches[i].hits(), models[i].hits);
      ASSERT_EQ(caches[i].misses(), models[i].misses);
      ASSERT_EQ(caches[i].expirations(), models[i].expirations);
      ASSERT_EQ(caches[i].invalidations(), models[i].invalidations);
      ASSERT_EQ(caches[i].size(), models[i].size());
      ASSERT_EQ(caches[i].LruKeys(), models[i].LruKeys());
    }
    // Every entry holds exactly one reference, and a block is shared only
    // by entries of one page.
    ASSERT_EQ(pool.refs(), caches[0].size() + caches[1].size());
    ASSERT_LE(pool.images(), pool.refs());
    peak_shared = std::max(peak_shared, pool.refs() - pool.images());
  }
  EXPECT_GT(peak_shared, 0u) << "the caches never shared an image";
}

TEST(NodeCacheTest, MatchesReferenceModelWithSharedPool) {
  for (const size_t capacity : {1, 2, 7, 64}) {
    for (const SimTime ttl : {SimTime{0}, SimTime{1000}}) {
      RunSharedDifferential(capacity, ttl, 37 + capacity, 4000);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(NodeCacheTest, SharedPoolStoresIdenticalImagesOnce) {
  ImagePool pool(64);
  NodeCache a(pool, 4, 0);
  NodeCache b(pool, 4, 0);
  std::vector<uint8_t> v1(64, 1);
  std::vector<uint8_t> v2(64, 2);
  a.Put(1, v1.data(), 0);
  b.Put(1, v1.data(), 0);
  EXPECT_EQ(pool.images(), 1u);
  EXPECT_EQ(pool.refs(), 2u);
  EXPECT_EQ(a.Get(1, 0), b.Get(1, 0)) << "identical images share a block";
  // Same bytes under another page are a different image.
  a.Put(2, v1.data(), 0);
  EXPECT_EQ(pool.images(), 2u);
  // b moves to a newer version of page 1; a keeps the old one.
  b.Put(1, v2.data(), 0);
  EXPECT_EQ(pool.images(), 3u);
  EXPECT_EQ(a.Get(1, 0)[0], 1);
  EXPECT_EQ(b.Get(1, 0)[0], 2);
  a.Invalidate(1);
  a.Invalidate(2);
  EXPECT_EQ(pool.images(), 1u);
  EXPECT_EQ(pool.refs(), 1u);
  const size_t blocks = pool.blocks();
  a.Put(3, v2.data(), 0);
  EXPECT_EQ(pool.blocks(), blocks) << "a released block is recycled";
}

TEST(NodeCacheDeathTest, PageSizedEntriesWithoutPoolAbort) {
  // Only entries of at most 8 bytes fit a slot; the check holds in every
  // build type, not only under assert.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ NodeCache cache(64, 4, 0); }, "need an ImagePool");
}

#if NAMTREE_AUDIT
TEST(NodeCacheDeathTest, WriteThroughReturnedImageTripsAuditGuard) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<uint8_t> image(64, 5);
  // Unmodified, the same sequence releases cleanly.
  {
    ImagePool pool(64);
    NodeCache cache(pool, 4, 0);
    cache.Put(1, image.data(), 0);
    ASSERT_NE(cache.Get(1, 0), nullptr);
    cache.Invalidate(1);
    EXPECT_EQ(pool.images(), 0u);
  }
  EXPECT_DEATH(
      {
        ImagePool pool(64);
        NodeCache cache(pool, 4, 0);
        cache.Put(1, image.data(), 0);
        const uint8_t* got = cache.Get(1, 0);
        // A caller that casts the read-only image writable and patches it
        // would change the page under every client sharing the block.
        const_cast<uint8_t*>(got)[3] ^= 1;
        cache.Invalidate(1);  // the release verifies the checksum
      },
      "written through a read-only cache pointer");
}
#endif

// ---- Cached fine-grained index ----------------------------------------------

Task<> LookupLoop(DistributedIndex& index, ClientContext& ctx, int rounds,
                  uint64_t keys, uint64_t* found) {
  for (int i = 0; i < rounds; ++i) {
    const Key k = (ctx.rng().NextBelow(keys)) * 2;
    const LookupResult r = co_await index.Lookup(ctx, k);
    if (r.found) (*found)++;
  }
}

TEST(CachedFineGrainedTest, CacheCutsRoundTripsWithoutMisses) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = kSecond;
  FineGrainedIndex index(cluster, ic);
  const uint64_t keys = 20000;
  std::vector<KV> data;
  for (uint64_t i = 0; i < keys; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 7);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, ctx, 2000, keys, &found));
  cluster.simulator().Run();
  EXPECT_EQ(found, 2000u);

  const auto stats = index.GetCacheStats();
  EXPECT_GT(stats.hits, stats.misses)
      << "a warmed cache must serve most inner reads";
  // With all inner levels cached, steady-state lookups need ~1 read each.
  EXPECT_LT(static_cast<double>(ctx.round_trips), 2000 * 2.2);
}

TEST(CachedFineGrainedTest, WarmClientsShareOneImagePerInnerPage) {
  // Every client walks every key of a static tree with speculative descent
  // on, so each caches every inner page. The pool then holds each page's
  // image once, every client's entry points at that one copy, and the hit
  // counts are what private caches give: one miss per inner page and
  // client, and a hit on every other inner hop.
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.speculative_descent = true;
  FineGrainedIndex index(cluster, ic);
  const uint64_t keys = 4000;
  std::vector<KV> data;
  for (uint64_t i = 0; i < keys; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  ASSERT_GE(index.root_level(), 2u);
  const uint64_t inner_pages =
      IndexInspector::Inspect(cluster.fabric(), index).inner_pages;

  constexpr uint32_t kClients = 8;
  cluster.fabric().SetNumClients(kClients);
  struct Walk {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t keys, uint64_t* found) {
      for (uint64_t i = 0; i < keys; ++i) {
        if ((co_await index.Lookup(ctx, i * 2)).found) (*found)++;
      }
    }
  };
  std::vector<std::unique_ptr<ClientContext>> ctxs;
  std::vector<uint64_t> found(kClients, 0);
  for (uint32_t c = 0; c < kClients; ++c) {
    ctxs.push_back(std::make_unique<ClientContext>(c, cluster.fabric(),
                                                   ic.page_size, c + 1));
    Spawn(cluster.simulator(), Walk::Go(index, *ctxs[c], keys, &found[c]));
  }
  cluster.simulator().Run();

  const ImagePool& pool = index.image_pool();
  EXPECT_EQ(pool.images(), inner_pages);
  EXPECT_EQ(pool.refs(), kClients * inner_pages);
  uint64_t speculative_hits = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    SCOPED_TRACE(testing::Message() << "client " << c);
    EXPECT_EQ(found[c], keys);
    NodeCache* cache = index.CacheFor(c);
    EXPECT_EQ(cache->size(), inner_pages);
    EXPECT_EQ(cache->misses(), inner_pages);
    EXPECT_EQ(cache->hits() + cache->misses(), keys * index.root_level());
    for (const uint64_t page : cache->LruKeys()) {
      bool expired = false;
      EXPECT_EQ(cache->Peek(page, 0, &expired),
                index.CacheFor(0)->Peek(page, 0, &expired))
          << "page " << page << " is not the shared image";
    }
    speculative_hits += ctxs[c]->speculative_hits.value();
  }
  EXPECT_GT(speculative_hits, 0u) << "no warm descent replayed its walk";
}

TEST(CachedFineGrainedTest, StaleCacheStaysCorrectUnderInserts) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.head_node_interval = 4;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = 10 * kSecond;  // effectively never expires
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 3000; ++i) data.push_back({i * 4, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(3);

  // Client 0 warms its cache.
  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, reader, 500, 3000 * 2, &found));
  cluster.simulator().Run();

  // Clients 1 and 2 split lots of leaves (reader's cache is now stale).
  struct Writer {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx, Key from,
                     Key to) {
      for (Key k = from; k < to; k += 4) {
        EXPECT_TRUE((co_await index.Insert(ctx, k, k)).ok());
      }
    }
  };
  ClientContext w1(1, cluster.fabric(), ic.page_size, 2);
  ClientContext w2(2, cluster.fabric(), ic.page_size, 3);
  Spawn(cluster.simulator(), Writer::Go(index, w1, 1, 12000));
  Spawn(cluster.simulator(), Writer::Go(index, w2, 2, 12000));
  cluster.simulator().Run();

  // Reader (stale cache) must still find every key, old and new.
  struct Verify {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t* missing) {
      for (Key k = 0; k < 12000; ++k) {
        if (k % 4 == 3) continue;  // never inserted
        const LookupResult r = co_await index.Lookup(ctx, k);
        if (!r.found) (*missing)++;
      }
    }
  };
  uint64_t missing = 0;
  Spawn(cluster.simulator(), Verify::Go(index, reader, &missing));
  cluster.simulator().Run();
  EXPECT_EQ(missing, 0u) << "stale cached routing lost keys";
}

/// One stale-cache round: a reader warms its inner-node cache, a second
/// client splits many leaves (publishing through the doorbell-batched
/// write+unlock / split chains), then the reader — still routing through
/// its stale cached inner nodes — looks up every moved key. Returns how
/// many it lost.
uint64_t StaleReaderMisses() {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Cluster cluster(fc, 32 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 2048;
  ic.client_cache_ttl = 10 * kSecond;  // effectively never expires
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 2000; ++i) data.push_back({i * 4, i});
  EXPECT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(2);

  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, reader, 400, 2000 * 2, &found));
  cluster.simulator().Run();

  ClientContext writer(1, cluster.fabric(), ic.page_size, 2);
  struct Writer {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx) {
      for (Key k = 1; k < 8000; k += 2) {
        EXPECT_TRUE((co_await index.Insert(ctx, k, k)).ok());
      }
    }
  };
  Spawn(cluster.simulator(), Writer::Go(index, writer));
  cluster.simulator().Run();

  struct Verify {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     uint64_t* missing) {
      for (Key k = 1; k < 8000; k += 2) {
        const LookupResult r = co_await index.Lookup(ctx, k);
        if (!r.found) (*missing)++;
      }
    }
  };
  uint64_t missing = 0;
  Spawn(cluster.simulator(), Verify::Go(index, reader, &missing));
  cluster.simulator().Run();
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
  return missing;
}

TEST(CachedFineGrainedTest, StaleCacheCatchesChainedLeafWrites) {
  // A stale cached inner node routes the reader to a pre-split leaf; the
  // version-checked leaf read plus the B-link chase must recover every key
  // that a *chained* {write, unlock} publication moved.
  EXPECT_EQ(StaleReaderMisses(), 0u)
      << "a chained write+unlock slipped past the stale-cache version check";
}

TEST(CachedFineGrainedTest, SplitSeedsWriterCacheWithPublishedParent) {
  // The install path seeds the writer's own cache with the parent image it
  // just published (patched to the post-release version word) instead of
  // invalidating it: the next lookup through that parent must be served
  // from cache and go straight to the correct new leaf — exactly one leaf
  // READ, no parent re-read, no B-link detour.
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Cluster cluster(fc, 16 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.head_node_interval = 0;
  ic.client_cache_pages = 1024;
  ic.client_cache_ttl = 0;  // no expiry
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 60; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  ASSERT_EQ(index.root_level(), 1u) << "test assumes a single inner level";

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 1);
  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx) {
      // Right-edge appends split the rightmost leaf repeatedly; every
      // separator install rewrites the root and seeds the cache with the
      // fresh image.
      for (uint64_t k = 0; k < 20; ++k) {
        EXPECT_TRUE((co_await index.Insert(ctx, 120 + 2 * k, k)).ok());
      }
      const uint64_t before = ctx.round_trips;
      const LookupResult r = co_await index.Lookup(ctx, 120 + 2 * 19);
      EXPECT_TRUE(r.found);
      EXPECT_EQ(ctx.round_trips - before, 1u)
          << "stale or missing cached root: the lookup took a detour";
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, ctx));
  cluster.simulator().Run();
  EXPECT_EQ(index.root_level(), 1u) << "root grew; the 1-read bound is void";
}

// ---- Cached coarse-one-sided index ------------------------------------------
// CG1S shares the inner-image cache policy with FG through the traversal
// engine; the difference is one cached tree per partition instead of one
// global tree.

TEST(CachedCoarseOneSidedTest, CacheServesInnerReadsAcrossPartitions) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = kSecond;
  CoarseOneSidedIndex index(cluster, ic);
  const uint64_t keys = 20000;
  std::vector<KV> data;
  for (uint64_t i = 0; i < keys; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 7);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, ctx, 2000, keys, &found));
  cluster.simulator().Run();
  EXPECT_EQ(found, 2000u);

  const auto stats = index.GetCacheStats();
  EXPECT_GT(stats.hits, 0u) << "CG1S descents never hit the inner cache";
  EXPECT_GT(stats.hits, stats.misses)
      << "a warmed cache must serve most inner reads";
  // With every partition's inner levels cached, steady-state lookups need
  // ~1 leaf read each.
  EXPECT_LT(static_cast<double>(ctx.round_trips), 2000 * 2.2);
}

TEST(CachedCoarseOneSidedTest, StaleCacheStaysCorrectUnderInserts) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = 10 * kSecond;  // effectively never expires
  CoarseOneSidedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 3000; ++i) data.push_back({i * 4, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(3);

  // Client 0 warms its cache.
  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  uint64_t found = 0;
  Spawn(cluster.simulator(), LookupLoop(index, reader, 500, 3000 * 2, &found));
  cluster.simulator().Run();

  // Clients 1 and 2 split leaves in every partition (reader's cached
  // inner images are now stale).
  struct Writer {
    static Task<> Go(CoarseOneSidedIndex& index, ClientContext& ctx, Key from,
                     Key to) {
      for (Key k = from; k < to; k += 4) {
        EXPECT_TRUE((co_await index.Insert(ctx, k, k)).ok());
      }
    }
  };
  ClientContext w1(1, cluster.fabric(), ic.page_size, 2);
  ClientContext w2(2, cluster.fabric(), ic.page_size, 3);
  Spawn(cluster.simulator(), Writer::Go(index, w1, 1, 12000));
  Spawn(cluster.simulator(), Writer::Go(index, w2, 2, 12000));
  cluster.simulator().Run();

  // Reader (stale cache) must still find every key, old and new.
  struct Verify {
    static Task<> Go(CoarseOneSidedIndex& index, ClientContext& ctx,
                     uint64_t* missing) {
      for (Key k = 0; k < 12000; ++k) {
        if (k % 4 == 3) continue;  // never inserted
        const LookupResult r = co_await index.Lookup(ctx, k);
        if (!r.found) (*missing)++;
      }
    }
  };
  uint64_t missing = 0;
  Spawn(cluster.simulator(), Verify::Go(index, reader, &missing));
  cluster.simulator().Run();
  EXPECT_EQ(missing, 0u) << "stale cached routing lost keys";
  EXPECT_GT(index.GetCacheStats().hits, 0u);
}

// ---- Cached hybrid index ----------------------------------------------------
// The hybrid design's cache policy stores resolved leaf ROUTES (lookup key
// -> leaf pointer) instead of node images: a hit skips the find-leaf RPC
// entirely. Stale routes are safe because leaf coverage only ever moves
// right — the B-link chase recovers.

TEST(CachedHybridTest, RouteCacheSkipsFindLeafRpcs) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = kSecond;
  HybridIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 5000; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());

  // A small hot set looked up repeatedly: after the first round every
  // route is cached, so each further lookup is 1 leaf READ, 0 RPCs.
  ClientContext ctx(0, cluster.fabric(), ic.page_size, 7);
  struct Driver {
    static Task<> Go(HybridIndex& index, ClientContext& ctx) {
      for (int round = 0; round < 10; ++round) {
        for (Key k = 0; k < 100; ++k) {
          const LookupResult r = co_await index.Lookup(ctx, k * 2);
          EXPECT_TRUE(r.found);
        }
      }
    }
  };
  Spawn(cluster.simulator(), Driver::Go(index, ctx));
  cluster.simulator().Run();

  const auto stats = index.GetCacheStats();
  EXPECT_EQ(stats.hits, 9u * 100u) << "every repeat lookup must hit a route";
  EXPECT_EQ(stats.misses, 100u);
  // Cold lookups pay RPC + leaf read; warm ones skip the RPC. The total
  // must beat the all-RPC cost of 2 round trips per lookup.
  EXPECT_LT(ctx.round_trips, 1000u * 2);
  EXPECT_GE(ctx.round_trips, 1000u);
}

TEST(CachedHybridTest, StaleRoutesRecoverAfterSplits) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 2;
  Cluster cluster(fc, 32 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  ic.client_cache_pages = 4096;
  ic.client_cache_ttl = 10 * kSecond;  // effectively never expires
  HybridIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 2000; ++i) data.push_back({i * 4, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  cluster.fabric().SetNumClients(2);

  // Reader caches a route for every live key.
  ClientContext reader(0, cluster.fabric(), ic.page_size, 1);
  struct Warm {
    static Task<> Go(HybridIndex& index, ClientContext& ctx) {
      for (Key k = 0; k < 2000 * 4; k += 4) {
        const LookupResult r = co_await index.Lookup(ctx, k);
        EXPECT_TRUE(r.found);
      }
    }
  };
  Spawn(cluster.simulator(), Warm::Go(index, reader));
  cluster.simulator().Run();

  // A writer splits most leaves; the reader's cached routes now point at
  // pre-split leaves whose upper halves moved right.
  ClientContext writer(1, cluster.fabric(), ic.page_size, 2);
  struct Writer {
    static Task<> Go(HybridIndex& index, ClientContext& ctx) {
      for (Key k = 1; k < 8000; k += 2) {
        EXPECT_TRUE((co_await index.Insert(ctx, k, k)).ok());
      }
    }
  };
  Spawn(cluster.simulator(), Writer::Go(index, writer));
  cluster.simulator().Run();

  // The reader re-reads every key through its stale routes: the B-link
  // sibling chase must recover each one.
  struct Verify {
    static Task<> Go(HybridIndex& index, ClientContext& ctx,
                     uint64_t* missing, uint64_t* route_hits) {
      const uint64_t hits_before = index.GetCacheStats().hits;
      for (Key k = 0; k < 8000; ++k) {
        if (k % 4 == 2) continue;  // even but not a bulk-loaded multiple of 4
        const LookupResult r = co_await index.Lookup(ctx, k);
        if (!r.found) (*missing)++;
      }
      *route_hits = index.GetCacheStats().hits - hits_before;
    }
  };
  uint64_t missing = 0;
  uint64_t route_hits = 0;
  Spawn(cluster.simulator(), Verify::Go(index, reader, &missing, &route_hits));
  cluster.simulator().Run();
  EXPECT_EQ(missing, 0u) << "a stale route lost keys";
  EXPECT_GT(route_hits, 0u) << "the verify pass never exercised the cache";
  EXPECT_TRUE(cluster.fabric().CheckAuditClean().ok())
      << cluster.fabric().CheckAuditClean().ToString();
}

TEST(CatalogBootstrapTest, FreshClientLearnsTheRootRemotely) {
  rdma::FabricConfig fc;
  fc.num_memory_servers = 4;
  Cluster cluster(fc, 64 << 20);
  IndexConfig ic;
  ic.page_size = 256;
  FineGrainedIndex index(cluster, ic);
  std::vector<KV> data;
  for (uint64_t i = 0; i < 5000; ++i) data.push_back({i * 2, i});
  ASSERT_TRUE(index.BulkLoad(data).ok());
  const rdma::RemotePtr loaded_root = index.root();
  const uint8_t loaded_level = index.root_level();

  ClientContext ctx(0, cluster.fabric(), ic.page_size, 1);
  struct Driver {
    static Task<> Go(FineGrainedIndex& index, ClientContext& ctx,
                     rdma::RemotePtr expected_root, uint8_t expected_level) {
      EXPECT_TRUE((co_await index.BootstrapFromCatalog(ctx)).ok());
      EXPECT_EQ(index.root().raw(), expected_root.raw());
      EXPECT_EQ(index.root_level(), expected_level);
      // Grow the root via splits; the catalog write keeps bootstrap fresh.
      for (uint64_t k = 0; k < 5000; ++k) {
        EXPECT_TRUE((co_await index.Insert(ctx, k * 2 + 1, k)).ok());
      }
      const rdma::RemotePtr grown = index.root();
      EXPECT_TRUE((co_await index.BootstrapFromCatalog(ctx)).ok());
      EXPECT_EQ(index.root().raw(), grown.raw());
      const LookupResult r = co_await index.Lookup(ctx, 101);
      EXPECT_TRUE(r.found);
    }
  };
  Spawn(cluster.simulator(),
        Driver::Go(index, ctx, loaded_root, loaded_level));
  cluster.simulator().Run();
}

}  // namespace
}  // namespace namtree::index
