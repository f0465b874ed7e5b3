#include "host_speed.h"

#include <cstring>

#include "designs.h"

namespace perfbench {

namespace {

constexpr size_t kArenaBytes = size_t{16} << 20;
constexpr uint32_t kPageBytes = 1024;
constexpr uint32_t kPages = kArenaBytes / kPageBytes;
constexpr int kSteps = 20'000;

}  // namespace

SpeedReference::SpeedReference() : arena_(kArenaBytes, 1), page_(kPageBytes) {
  for (uint32_t i = 0; i < 64; ++i) queue_.push({i, i * 977 % kPages});
  for (uint64_t k = 0; k < 4096; ++k) table_[k * 2654435761u] = k;
}

double SpeedReference::NsPerStep() {
  const double t0 = ThreadCpuSeconds();
  for (int i = 0; i < kSteps; ++i) {
    const Event e = queue_.top();
    queue_.pop();
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t key = ((state_ >> 33) % 4096) * 2654435761u;
    table_[key] += e.page;
    std::memcpy(page_.data(), arena_.data() + size_t{e.page} * kPageBytes,
                kPageBytes);
    page_[e.page % kPageBytes] ^= static_cast<uint8_t>(e.time);
    queue_.push({e.time + 1 + (state_ >> 60),
                 static_cast<uint32_t>((state_ >> 20) % kPages)});
  }
  return (ThreadCpuSeconds() - t0) * 1e9 / kSteps;
}

}  // namespace perfbench
