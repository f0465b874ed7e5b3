// Unit tests for rdma::MemoryRegion: zero-initialised contents, bounds,
// local allocation limits, and lazily committed backing memory.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <vector>

#include "rdma/memory_region.h"

namespace namtree::rdma {
namespace {

TEST(MemoryRegionTest, FreshRegionReadsZero) {
  // Small regions may come from reused heap memory, large ones from fresh
  // pages; both must read as zero past the allocation cursor.
  for (const uint64_t capacity : {4096ull, 1ull << 20, 64ull << 20}) {
    SCOPED_TRACE(capacity);
    MemoryRegion region(0, capacity);
    for (uint32_t i = 0; i < MemoryRegion::kCatalogSlots; ++i) {
      EXPECT_EQ(region.ReadU64(MemoryRegion::CatalogSlotOffset(i)), 0u);
    }
    EXPECT_EQ(region.ReadU64(MemoryRegion::kHeaderSize), 0u);
    EXPECT_EQ(region.ReadU64(capacity / 2), 0u);
    EXPECT_EQ(*region.at(capacity - 1), 0u);
    EXPECT_EQ(region.allocated(), MemoryRegion::kHeaderSize);
  }
}

TEST(MemoryRegionTest, ContainsEndsAtCapacity) {
  MemoryRegion region(0, 4096);
  EXPECT_EQ(region.capacity(), 4096u);
  EXPECT_TRUE(region.Contains(0, 4096));
  EXPECT_TRUE(region.Contains(4088, 8));
  EXPECT_TRUE(region.Contains(4096, 0));
  EXPECT_FALSE(region.Contains(4089, 8));
  EXPECT_FALSE(region.Contains(4096, 1));
  EXPECT_FALSE(region.Contains(8, UINT64_MAX));  // offset + len wraps
}

TEST(MemoryRegionTest, AllocateLocalStopsAtAllocLimit) {
  MemoryRegion region(0, 1 << 16);
  EXPECT_EQ(region.alloc_limit(), region.capacity());
  region.set_alloc_limit(4096);
  EXPECT_EQ(region.alloc_limit(), 4096u);

  const RemotePtr p = region.AllocateLocal(4096 - MemoryRegion::kHeaderSize);
  ASSERT_FALSE(p.is_null());
  EXPECT_EQ(p.offset(), MemoryRegion::kHeaderSize);
  EXPECT_EQ(region.allocated(), 4096u);
  EXPECT_TRUE(region.AllocateLocal(8).is_null());
  EXPECT_EQ(region.allocated(), 4096u);  // a refused allocation moves nothing

  region.set_alloc_limit(0);  // back to the full capacity
  const RemotePtr q = region.AllocateLocal(8);
  ASSERT_FALSE(q.is_null());
  EXPECT_EQ(q.offset(), 4096u);
}

TEST(MemoryRegionTest, AllocateLocalReturnsNullWhenExhausted) {
  MemoryRegion region(0, 4096);
  ASSERT_FALSE(region.AllocateLocal(4096 - MemoryRegion::kHeaderSize).is_null());
  EXPECT_EQ(region.allocated(), region.capacity());
  EXPECT_TRUE(region.AllocateLocal(1).is_null());
}

// Sanitizer allocators may clear calloc memory eagerly (TSan always does),
// so the laziness guard runs only in uninstrumented builds.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
// Resident set size in bytes: the second field of /proc/self/statm, in pages.
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

TEST(MemoryRegionTest, UntouchedPagesAreNotResident) {
  constexpr uint64_t kRegionBytes = 256ull << 20;
  const int64_t before = ResidentBytes();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<MemoryRegion>> regions;
  for (uint32_t s = 0; s < 4; ++s) {
    regions.push_back(std::make_unique<MemoryRegion>(s, kRegionBytes));
  }
  // Eager zeroing would make all 1 GiB resident; lazily only the header
  // page of each region is.
  EXPECT_LT(ResidentBytes() - before, 16ll << 20);
  EXPECT_EQ(regions.back()->ReadU64(MemoryRegion::kHeaderSize), 0u);
}
#endif

}  // namespace
}  // namespace namtree::rdma
