#ifndef NAMTREE_RDMA_MEMORY_REGION_H_
#define NAMTREE_RDMA_MEMORY_REGION_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "common/status.h"
#include "rdma/remote_ptr.h"

namespace namtree::rdma {

/// An RDMA-registered memory region owned by one memory server.
///
/// Layout:
///   [0, kHeaderSize)   region header — currently one 8-byte allocation
///                      cursor at offset 0, so that *remote* allocation can
///                      be implemented with a single RDMA FETCH_AND_ADD on a
///                      well-known address (the paper's RDMA_ALLOC,
///                      Listing 4), plus catalog slots (root pointers) that
///                      clients read/CAS directly.
///   [kHeaderSize, ...) bump-allocated pages.
///
/// The backing store is lazily zeroed: `calloc` serves a region this large
/// from fresh anonymous pages, so a page costs neither CPU nor resident
/// memory until something first touches it. Contents still read as zero
/// everywhere. (Small regions may come from reused heap memory that calloc
/// clears eagerly; that is equally correct, just not lazy.)
class MemoryRegion {
 public:
  static constexpr uint64_t kAllocCursorOffset = 0;
  static constexpr uint64_t kCatalogOffset = 8;
  static constexpr uint32_t kCatalogSlots = 31;
  static constexpr uint64_t kHeaderSize = 8 + 8 * kCatalogSlots;  // 256

  explicit MemoryRegion(uint32_t server_id, uint64_t capacity_bytes)
      : server_id_(server_id),
        buffer_(static_cast<uint8_t*>(std::calloc(capacity_bytes, 1))),
        capacity_(capacity_bytes) {
    if (buffer_ == nullptr) throw std::bad_alloc();
    WriteU64(kAllocCursorOffset, kHeaderSize);
  }

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  uint32_t server_id() const { return server_id_; }
  uint64_t capacity() const { return capacity_; }

  /// Bytes handed out so far (reads the allocation cursor).
  uint64_t allocated() const { return ReadU64(kAllocCursorOffset); }

  uint8_t* at(uint64_t offset) { return buffer_.get() + offset; }
  const uint8_t* at(uint64_t offset) const { return buffer_.get() + offset; }

  bool Contains(uint64_t offset, uint64_t len) const {
    return offset + len <= capacity_ && offset + len >= offset;
  }

  /// Upper bound for allocations (0 = full capacity). Under replication
  /// the fabric caps each region's primary allocations to its own rank-0
  /// stripe so the backup stripes above it stay reserved for replicas.
  void set_alloc_limit(uint64_t limit) { alloc_limit_ = limit; }
  uint64_t alloc_limit() const {
    return alloc_limit_ == 0 ? capacity_ : alloc_limit_;
  }

  /// Server-local (bootstrap/bulk-load time) allocation. Returns a null
  /// pointer when the region is exhausted. Remote allocation at runtime
  /// goes through RDMA FETCH_AND_ADD on the cursor instead.
  RemotePtr AllocateLocal(uint64_t bytes) {
    const uint64_t cursor = ReadU64(kAllocCursorOffset);
    if (cursor + bytes > alloc_limit()) return RemotePtr::Null();
    WriteU64(kAllocCursorOffset, cursor + bytes);
    return RemotePtr::Make(server_id_, cursor);
  }

  uint64_t ReadU64(uint64_t offset) const {
    uint64_t v;
    std::memcpy(&v, at(offset), sizeof(v));
    return v;
  }

  void WriteU64(uint64_t offset, uint64_t v) {
    std::memcpy(at(offset), &v, sizeof(v));
  }

  /// Offset of catalog slot `i` (root pointers and similar metadata).
  static uint64_t CatalogSlotOffset(uint32_t i) {
    return kCatalogOffset + 8ull * i;
  }

 private:
  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  uint32_t server_id_;
  std::unique_ptr<uint8_t[], FreeDeleter> buffer_;
  uint64_t capacity_;
  uint64_t alloc_limit_ = 0;  // 0 = capacity()
};

}  // namespace namtree::rdma

#endif  // NAMTREE_RDMA_MEMORY_REGION_H_
