#ifndef NAMTREE_INDEX_NODE_CACHE_H_
#define NAMTREE_INDEX_NODE_CACHE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/units.h"

namespace namtree::index {

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
/// (docs/traversal.md, "Cache layout"): entries live in a slot array, an
/// open-addressed table of slot indices finds them (Fibonacci hash, linear
/// probing, backward-shift erase, load factor <= 1/2), the LRU list is
/// linked through slot indices, and images sit in fixed-size chunks
/// addressed by slot index, so an image never moves once written.
class NodeCache {
 public:
  NodeCache(uint32_t page_size, size_t capacity_pages, SimTime ttl)
      : page_size_(page_size), capacity_(capacity_pages), ttl_(ttl) {}

  uint32_t page_size() const { return page_size_; }
  size_t capacity() const { return capacity_; }
  SimTime ttl() const { return ttl_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t expirations() const { return expirations_; }
  /// Entries dropped by Invalidate (the fence checks' evictions).
  uint64_t invalidations() const { return invalidations_; }
  size_t size() const { return size_; }

  /// Returns the cached image for `ptr_raw` (valid until the next cache
  /// mutation) or nullptr on miss/expiry.
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
    hits_++;
    MoveToFront(slot);
    return Image(slot);
  }

  /// Non-mutating lookup for the speculative path predictor: no LRU touch,
  /// no hit/miss/expiration accounting, and — unlike Get — TTL-expired
  /// entries are neither erased nor hidden: the image is returned with
  /// `*expired = true` so the predictor can route through it locally (a
  /// stale inner image only routes too far left) while scheduling a fresh
  /// batched read for it. The pointer is valid until the next cache
  /// mutation; prediction must not await between Peek and use.
  const uint8_t* Peek(uint64_t ptr_raw, SimTime now, bool* expired) const {
    const uint32_t pos = Find(ptr_raw);
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
    keys.reserve(size_);
    for (uint32_t s = head_; s != kNil; s = slots_[s].next) {
      keys.push_back(slots_[s].key);
    }
    return keys;
  }

  /// Inserts/overwrites the image for `ptr_raw`, evicting the LRU entry
  /// when over budget.
  void Put(uint64_t ptr_raw, const uint8_t* image, SimTime now) {
    if (capacity_ == 0) return;
    uint32_t slot;
    const uint32_t pos = Find(ptr_raw);
    if (pos != kNil) {
      slot = table_[pos];
      MoveToFront(slot);
    } else {
      if (size_ >= capacity_) Erase(Find(slots_[tail_].key));
      slot = AllocSlot();
      slots_[slot].key = ptr_raw;
      Insert(slot);
      LinkFront(slot);
    }
    std::memcpy(Image(slot), image, page_size_);
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
  static constexpr uint32_t kNil = UINT32_MAX;
  /// Images per allocation. A growing vector of images would transiently
  /// need twice its size on every doubling; fixed chunks never move.
  static constexpr uint32_t kChunkImages = 16;

  struct Slot {
    uint64_t key = 0;
    SimTime loaded_at = 0;
    uint32_t prev = kNil;  ///< towards the MRU end
    uint32_t next = kNil;  ///< towards the LRU end; free-list link if free
  };

  bool Expired(uint32_t slot, SimTime now) const {
    return ttl_ > 0 && now - slots_[slot].loaded_at > ttl_;
  }

  uint8_t* Image(uint32_t slot) const {
    return chunks_[slot / kChunkImages].get() +
           static_cast<size_t>(slot % kChunkImages) * page_size_;
  }

  /// Home bucket: the top bits of the key times 2^64/phi.
  uint32_t Home(uint64_t key) const {
    return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Table position holding `key`, or kNil.
  uint32_t Find(uint64_t key) const {
    if (table_.empty()) return kNil;
    // The table is at most half full, so the probe meets an empty bucket.
    for (uint32_t pos = Home(key);; pos = (pos + 1) & mask_) {
      const uint32_t slot = table_[pos];
      if (slot == kNil) return kNil;
      if (slots_[slot].key == key) return pos;
    }
  }

  /// Adds `slot` (key not present) to the table, doubling it first when
  /// the insert would push the load factor past 1/2.
  void Insert(uint32_t slot) {
    if (2 * (size_ + 1) > table_.size()) Rehash();
    Place(slot);
    size_++;
  }

  /// Stores `slot` in the first empty bucket of its probe run.
  void Place(uint32_t slot) {
    uint32_t pos = Home(slots_[slot].key);
    while (table_[pos] != kNil) pos = (pos + 1) & mask_;
    table_[pos] = slot;
  }

  void Rehash() {
    std::vector<uint32_t> old = std::move(table_);
    const size_t buckets = old.empty() ? 16 : 2 * old.size();
    table_.assign(buckets, kNil);
    mask_ = static_cast<uint32_t>(buckets - 1);
    shift_ = 64 - __builtin_ctzll(buckets);
    for (const uint32_t slot : old) {
      if (slot != kNil) Place(slot);
    }
  }

  /// Removes the entry at table position `pos`: unlinks it from the LRU,
  /// frees its slot, and closes the probe gap by shifting later members of
  /// the run back (no tombstones).
  void Erase(uint32_t pos) {
    const uint32_t slot = table_[pos];
    Unlink(slot);
    slots_[slot].next = free_;
    free_ = slot;
    size_--;
    uint32_t hole = pos;
    for (uint32_t i = (hole + 1) & mask_; table_[i] != kNil;
         i = (i + 1) & mask_) {
      // Entry i may fill the hole unless its home lies in (hole, i].
      const uint32_t home = Home(slots_[table_[i]].key);
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        table_[hole] = table_[i];
        hole = i;
      }
    }
    table_[hole] = kNil;
  }

  /// A free slot, reusing erased ones first; a new slot past the last
  /// chunk allocates the next chunk of images.
  uint32_t AllocSlot() {
    if (free_ != kNil) {
      const uint32_t slot = free_;
      free_ = slots_[slot].next;
      return slot;
    }
    const auto slot = static_cast<uint32_t>(slots_.size());
    if (slot % kChunkImages == 0) {
      chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(
          static_cast<size_t>(kChunkImages) * page_size_));
    }
    slots_.emplace_back();
    return slot;
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
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  std::vector<uint32_t> table_;  ///< slot index per bucket, kNil = empty
  uint32_t mask_ = 0;
  uint32_t shift_ = 64;
  uint32_t head_ = kNil;  ///< most recently used
  uint32_t tail_ = kNil;  ///< least recently used: the next victim
  uint32_t free_ = kNil;  ///< head of the free-slot list
  size_t size_ = 0;
  // namtree-lint: metric-ok(cache-local accounting surfaced through CacheStats; the cache is a value type created per context, not a registry owner)
  uint64_t hits_ = 0;
  // namtree-lint: metric-ok(see hits_)
  uint64_t misses_ = 0;
  uint64_t expirations_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_NODE_CACHE_H_
