#ifndef NAMTREE_INDEX_NODE_CACHE_H_
#define NAMTREE_INDEX_NODE_CACHE_H_

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/units.h"

namespace namtree::index {

/// Open-addressed table of 32-bit handles into an owner's array (Fibonacci
/// hash, linear probing, backward-shift erase, load factor <= 1/2): the
/// index of NodeCache's slots and of ImagePool's blocks. The owner keeps
/// each handle's key; every member takes a `key_of(handle)` accessor for
/// it. Several handles may share a key, and then one probe run.
class HandleTable {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  size_t size() const { return size_; }
  /// The handle at table position `pos`.
  uint32_t operator[](uint32_t pos) const { return table_[pos]; }

  /// Position of the first handle `h` of `key`'s probe run with
  /// key_of(h) == key and match(h), or kNil.
  template <typename KeyOf, typename Match>
  uint32_t Find(uint64_t key, KeyOf key_of, Match match) const {
    if (table_.empty()) return kNil;
    // The table is at most half full, so the probe meets an empty bucket.
    for (uint32_t pos = Home(key);; pos = (pos + 1) & mask_) {
      const uint32_t h = table_[pos];
      if (h == kNil) return kNil;
      if (key_of(h) == key && match(h)) return pos;
    }
  }
  template <typename KeyOf>
  uint32_t Find(uint64_t key, KeyOf key_of) const {
    return Find(key, key_of, [](uint32_t) { return true; });
  }

  /// Adds handle `h`, doubling the table first when the insert would push
  /// the load factor past 1/2.
  template <typename KeyOf>
  void Insert(uint32_t h, KeyOf key_of) {
    if (2 * (size_ + 1) > table_.size()) Rehash(key_of);
    Place(h, key_of);
    size_++;
  }

  /// Removes the handle at position `pos`, closing the probe gap by
  /// shifting later members of the run back (no tombstones).
  template <typename KeyOf>
  void EraseAt(uint32_t pos, KeyOf key_of) {
    size_--;
    uint32_t hole = pos;
    for (uint32_t i = (hole + 1) & mask_; table_[i] != kNil;
         i = (i + 1) & mask_) {
      // Entry i may fill the hole unless its home lies in (hole, i].
      const uint32_t home = Home(key_of(table_[i]));
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        table_[hole] = table_[i];
        hole = i;
      }
    }
    table_[hole] = kNil;
  }

 private:
  /// Home bucket: the top bits of the key times 2^64/phi.
  uint32_t Home(uint64_t key) const {
    return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Stores `h` in the first empty bucket of its probe run.
  template <typename KeyOf>
  void Place(uint32_t h, KeyOf key_of) {
    uint32_t pos = Home(key_of(h));
    while (table_[pos] != kNil) pos = (pos + 1) & mask_;
    table_[pos] = h;
  }

  template <typename KeyOf>
  void Rehash(KeyOf key_of) {
    std::vector<uint32_t> old = std::move(table_);
    const size_t buckets = old.empty() ? 16 : 2 * old.size();
    table_.assign(buckets, kNil);
    mask_ = static_cast<uint32_t>(buckets - 1);
    shift_ = 64 - __builtin_ctzll(buckets);
    for (const uint32_t h : old) {
      if (h != kNil) Place(h, key_of);
    }
  }

  std::vector<uint32_t> table_;  ///< handle per bucket, kNil = empty
  uint32_t mask_ = 0;
  uint32_t shift_ = 64;
  size_t size_ = 0;
};

/// Reference-counted store of client-cache page images, shared by every
/// NodeCache of one TraversalEngine (docs/traversal.md, "Cache layout").
/// Clients of one index cache the same few hundred inner pages, so an
/// image is stored once per (page, content): Intern hands out a reference
/// to an identical image of the same page when one is held, and copies
/// the bytes into a recycled block otherwise. Images are immutable while
/// referenced; the last Release recycles the block.
///
/// Storage is flat: block metadata in one vector, images in fixed-size
/// chunks that never move, free blocks on a list linked through the
/// metadata, and a HandleTable of blocks keyed by page. Stale and fresh
/// images of one page can coexist, so a page may own several blocks.
///
/// Audited builds keep a checksum of every block, taken at intern time and
/// verified at each release: a write through a pointer a cache returned
/// would change the image under every client sharing it, and aborts there.
class ImagePool {
 public:
  static constexpr uint32_t kNil = HandleTable::kNil;

  explicit ImagePool(uint32_t image_size) : image_size_(image_size) {}
  ImagePool(const ImagePool&) = delete;
  ImagePool& operator=(const ImagePool&) = delete;

  uint32_t image_size() const { return image_size_; }
  /// Distinct images held: blocks with at least one reference.
  size_t images() const { return table_.size(); }
  /// References held across all blocks.
  size_t refs() const { return refs_; }
  /// Blocks ever allocated, live or free: the pool's footprint in images.
  size_t blocks() const { return blocks_.size(); }

  /// A reference to an image of `page` holding `bytes`: an identical held
  /// image gains a reference, otherwise the bytes are copied into a block.
  uint32_t Intern(uint64_t page, const uint8_t* bytes) {
    refs_++;
    const uint32_t pos = table_.Find(page, PageOf{this}, [&](uint32_t b) {
      return std::memcmp(Data(b), bytes, image_size_) == 0;
    });
    if (pos != kNil) {
      blocks_[table_[pos]].refs++;
      return table_[pos];
    }
    const uint32_t b = AllocBlock();
    std::memcpy(Data(b), bytes, image_size_);
    blocks_[b].page = page;
    blocks_[b].refs = 1;
#if NAMTREE_AUDIT
    blocks_[b].checksum = Checksum(b);
#endif
    table_.Insert(b, PageOf{this});
    return b;
  }

  /// Drops one reference to `block`; the last one recycles it.
  void Release(uint32_t block) {
    Block& blk = blocks_[block];
    assert(blk.refs > 0);
#if NAMTREE_AUDIT
    if (Checksum(block) != blk.checksum) {
      std::fprintf(stderr,
                   "ImagePool: image of page %#llx was written through a "
                   "read-only cache pointer\n",
                   static_cast<unsigned long long>(blk.page));
      std::abort();
    }
#endif
    refs_--;
    if (--blk.refs > 0) return;
    table_.EraseAt(
        table_.Find(blk.page, PageOf{this},
                    [block](uint32_t b) { return b == block; }),
        PageOf{this});
    blk.next_free = free_;
    free_ = block;
  }

  const uint8_t* data(uint32_t block) const { return Data(block); }

 private:
  /// Images per allocation; a chunk never moves once allocated.
  static constexpr uint32_t kChunkImages = 64;

  struct Block {
    uint64_t page = 0;
    uint32_t refs = 0;
    uint32_t next_free = kNil;
#if NAMTREE_AUDIT
    uint64_t checksum = 0;
#endif
  };

  /// The table's key of a block: its page.
  struct PageOf {
    const ImagePool* pool;
    uint64_t operator()(uint32_t b) const { return pool->blocks_[b].page; }
  };

  uint8_t* Data(uint32_t block) const {
    return chunks_[block / kChunkImages].get() +
           static_cast<size_t>(block % kChunkImages) * image_size_;
  }

#if NAMTREE_AUDIT
  /// FNV-1a over the image.
  uint64_t Checksum(uint32_t block) const {
    const uint8_t* bytes = Data(block);
    uint64_t h = 0xCBF29CE484222325ull;
    for (uint32_t i = 0; i < image_size_; ++i) {
      h = (h ^ bytes[i]) * 0x100000001B3ull;
    }
    return h;
  }
#endif

  /// A free block, recycling released ones first; a block past the last
  /// chunk allocates the next chunk.
  uint32_t AllocBlock() {
    if (free_ != kNil) {
      const uint32_t b = free_;
      free_ = blocks_[b].next_free;
      return b;
    }
    const auto b = static_cast<uint32_t>(blocks_.size());
    if (b % kChunkImages == 0) {
      chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(
          static_cast<size_t>(kChunkImages) * image_size_));
    }
    blocks_.emplace_back();
    return b;
  }

  uint32_t image_size_;
  std::vector<Block> blocks_;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  HandleTable table_;  ///< live blocks, keyed by page
  uint32_t free_ = kNil;  ///< head of the free-block list
  size_t refs_ = 0;
};

/// Client-side cache of (inner) index-node images, the Appendix A.4
/// extension: compute servers keep copies of hot index nodes to skip remote
/// reads during traversal.
///
/// Entries live until a fence check proves them stale (docs/traversal.md,
/// "Fence validation"). Stale images are *safe* in a B-link tree: they can
/// only route a traversal to a node whose key range has since shrunk, and
/// the sibling chase recovers, so staleness costs extra hops, never
/// correctness. The traversal engine bounds those hops: the first remote
/// image of a page reached through a cached parent must carry the high
/// fence the parent promised for it (a leaf route must still cover its
/// key), and an entry whose promise is broken is dropped with Invalidate,
/// so the next descent re-reads it. `ttl` > 0 additionally expires every
/// entry that long after loading: an opt-in ablation setting (the
/// speculative-descent benches measure that regime); 0, the default, never
/// expires.
///
/// Eviction is LRU over a fixed page budget.
///
/// Storage is flat so a warm lookup neither chases pointers nor allocates
/// (docs/traversal.md, "Cache layout"): entries live in a slot array, a
/// HandleTable of slots finds them, and the LRU list is linked through
/// slot indices. An image cache interns its page images in an ImagePool
/// shared with the other clients' caches, and a slot holds its image's
/// pool block. A cache of entries of at most 8 bytes (leaf routes) keeps
/// them in the slots themselves: a pool reference would be as large as the
/// entry and cost a probe on every Put.
class NodeCache {
 public:
  /// Slot handle returned by Peek; kNil when absent.
  static constexpr uint32_t kNil = HandleTable::kNil;
  /// Largest entry a cache without a pool holds.
  static constexpr uint32_t kInlineBytes = 8;

  /// A cache of `entry_size`-byte entries (at most kInlineBytes) kept in
  /// the slots. Aborts on a larger size, in every build type.
  NodeCache(uint32_t entry_size, size_t capacity_pages, SimTime ttl)
      : page_size_(entry_size),
        capacity_(capacity_pages),
        ttl_(ttl),
        pool_(nullptr) {
    if (entry_size > kInlineBytes) {
      std::fprintf(stderr,
                   "NodeCache: %u-byte entries need an ImagePool\n",
                   entry_size);
      std::abort();
    }
  }
  /// A cache of page images (pool.image_size() bytes) interned in `pool`,
  /// which must outlive the cache.
  NodeCache(ImagePool& pool, size_t capacity_pages, SimTime ttl)
      : page_size_(pool.image_size()),
        capacity_(capacity_pages),
        ttl_(ttl),
        pool_(&pool) {}
  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;
  ~NodeCache() {
    if (pool_ == nullptr) return;
    for (uint32_t s = head_; s != kNil; s = slots_[s].next) {
      pool_->Release(static_cast<uint32_t>(slots_[s].entry));
    }
  }

  uint32_t page_size() const { return page_size_; }
  size_t capacity() const { return capacity_; }
  SimTime ttl() const { return ttl_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t expirations() const { return expirations_; }
  /// Entries dropped by Invalidate (the fence checks' evictions).
  uint64_t invalidations() const { return invalidations_; }
  size_t size() const { return table_.size(); }
  /// Bumped by every Put and every erase (eviction, expiry, Invalidate):
  /// while it is unchanged, every key maps to the slot and image it had.
  uint64_t mutations() const { return mutations_; }

  /// Returns the cached image for `ptr_raw` (read-only, valid until the
  /// next cache mutation) or nullptr on miss/expiry.
  const uint8_t* Get(uint64_t ptr_raw, SimTime now) {
    const uint32_t pos = Find(ptr_raw);
    if (pos == kNil) {
      misses_++;
      return nullptr;
    }
    const uint32_t slot = table_[pos];
    if (Expired(slot, now)) {
      expirations_++;
      misses_++;
      Erase(pos);
      return nullptr;
    }
    Touch(slot);
    return Image(slot);
  }

  /// Get's hit accounting and LRU move for `slot`, a handle Peek returned
  /// while mutations() still reads what it read then: how a replayed
  /// speculative hop counts as the hit Get would have been, without
  /// looking the key up or the image over again.
  void Touch(uint32_t slot) {
    hits_++;
    MoveToFront(slot);
  }

  /// Non-mutating lookup for the speculative path predictor: no LRU touch,
  /// no hit/miss/expiration accounting, and — unlike Get — TTL-expired
  /// entries are neither erased nor hidden: the image is returned with
  /// `*expired = true` so the predictor can route through it locally (a
  /// stale inner image only routes too far left) while scheduling a fresh
  /// batched read for it. The pointer is valid until the next cache
  /// mutation; prediction must not await between Peek and use. `slot`,
  /// when given, receives the entry's handle for Touch (kNil on a miss).
  const uint8_t* Peek(uint64_t ptr_raw, SimTime now, bool* expired,
                      uint32_t* slot = nullptr) const {
    const uint32_t pos = Find(ptr_raw);
    if (slot != nullptr) *slot = pos == kNil ? kNil : table_[pos];
    if (pos == kNil) {
      *expired = false;
      return nullptr;
    }
    *expired = Expired(table_[pos], now);
    return Image(table_[pos]);
  }

  /// Debug/test introspection: cached keys in LRU order (most recent
  /// first). Lets tests pin that speculative probing leaves the
  /// replacement state bit-identical to a no-speculation run.
  std::vector<uint64_t> LruKeys() const {
    std::vector<uint64_t> keys;
    keys.reserve(size());
    for (uint32_t s = head_; s != kNil; s = slots_[s].next) {
      keys.push_back(slots_[s].key);
    }
    return keys;
  }

  /// Inserts/overwrites the image for `ptr_raw`, evicting the LRU entry
  /// when over budget.
  void Put(uint64_t ptr_raw, const uint8_t* image, SimTime now) {
    if (capacity_ == 0) return;
    mutations_++;
    // Take the bytes before anything is evicted: `image` may point at an
    // entry (of this cache or, pooled, of another) that the eviction frees.
    // An overwrite with identical bytes gets its own block back here.
    uint64_t entry = 0;
    if (pool_ == nullptr) {
      std::memcpy(&entry, image, page_size_);
    } else {
      entry = pool_->Intern(ptr_raw, image);
    }
    uint32_t slot;
    const uint32_t pos = Find(ptr_raw);
    if (pos != kNil) {
      slot = table_[pos];
      MoveToFront(slot);
      if (pool_ != nullptr) {
        pool_->Release(static_cast<uint32_t>(slots_[slot].entry));
      }
    } else {
      if (size() >= capacity_) Erase(Find(slots_[tail_].key));
      slot = AllocSlot();
      slots_[slot].key = ptr_raw;
      table_.Insert(slot, KeyOf{this});
      LinkFront(slot);
    }
    slots_[slot].entry = entry;
    slots_[slot].loaded_at = now;
  }

  /// Drops one entry (a fence check proved it stale); no-op when absent.
  void Invalidate(uint64_t ptr_raw) {
    const uint32_t pos = Find(ptr_raw);
    if (pos == kNil) return;
    invalidations_++;
    Erase(pos);
  }

 private:
  struct Slot {
    uint64_t key = 0;
    SimTime loaded_at = 0;
    uint32_t prev = kNil;  ///< towards the MRU end
    uint32_t next = kNil;  ///< towards the LRU end; free-list link if free
    /// The entry's pool block (pool_ set), else the entry's bytes.
    uint64_t entry = 0;
  };

  bool Expired(uint32_t slot, SimTime now) const {
    return ttl_ > 0 && now - slots_[slot].loaded_at > ttl_;
  }

  const uint8_t* Image(uint32_t slot) const {
    const uint64_t& entry = slots_[slot].entry;
    return pool_ != nullptr ? pool_->data(static_cast<uint32_t>(entry))
                            : reinterpret_cast<const uint8_t*>(&entry);
  }

  /// The table's key of a slot.
  struct KeyOf {
    const NodeCache* cache;
    uint64_t operator()(uint32_t slot) const {
      return cache->slots_[slot].key;
    }
  };

  /// Table position holding `key`, or kNil.
  uint32_t Find(uint64_t key) const { return table_.Find(key, KeyOf{this}); }

  /// Removes the entry at table position `pos`: unlinks it from the LRU,
  /// releases its image, frees its slot and drops it from the table.
  void Erase(uint32_t pos) {
    mutations_++;
    const uint32_t slot = table_[pos];
    Unlink(slot);
    if (pool_ != nullptr) {
      pool_->Release(static_cast<uint32_t>(slots_[slot].entry));
    }
    slots_[slot].next = free_;
    free_ = slot;
    table_.EraseAt(pos, KeyOf{this});
  }

  /// A free slot, reusing erased ones first.
  uint32_t AllocSlot() {
    if (free_ != kNil) {
      const uint32_t slot = free_;
      free_ = slots_[slot].next;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void LinkFront(uint32_t slot) {
    slots_[slot].prev = kNil;
    slots_[slot].next = head_;
    if (head_ != kNil) slots_[head_].prev = slot;
    head_ = slot;
    if (tail_ == kNil) tail_ = slot;
  }

  void Unlink(uint32_t slot) {
    const Slot& s = slots_[slot];
    (s.prev != kNil ? slots_[s.prev].next : head_) = s.next;
    (s.next != kNil ? slots_[s.next].prev : tail_) = s.prev;
  }

  void MoveToFront(uint32_t slot) {
    if (slot == head_) return;
    Unlink(slot);
    LinkFront(slot);
  }

  uint32_t page_size_;
  size_t capacity_;
  SimTime ttl_;
  /// Set for an image cache; null while entries live in the slots.
  ImagePool* pool_;
  std::vector<Slot> slots_;
  HandleTable table_;  ///< the cached slots, keyed by page pointer
  uint32_t head_ = kNil;  ///< most recently used
  uint32_t tail_ = kNil;  ///< least recently used: the next victim
  uint32_t free_ = kNil;  ///< head of the free-slot list
  uint64_t mutations_ = 0;
  // namtree-lint: metric-ok(cache-local accounting surfaced through CacheStats; the cache is a value type created per context, not a registry owner)
  uint64_t hits_ = 0;
  // namtree-lint: metric-ok(see hits_)
  uint64_t misses_ = 0;
  uint64_t expirations_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_NODE_CACHE_H_
