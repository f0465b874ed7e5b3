#include "common/histogram.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <vector>

namespace namtree {

namespace {

/// Bucket lower bounds, derived once from the log10 formula so that a
/// sample costs a table walk instead of a libm call.
struct BucketTable {
  /// first[i]: the smallest value the formula puts in bucket i or above
  /// (first[0] = 0). Buckets past the one UINT64_MAX lands in are absent.
  std::vector<uint64_t> first;
  /// start[w]: the bucket of the smallest value of bit width w. A width
  /// spans log10(2) of a decade, so at most a few buckets lie above it.
  std::array<int, 65> start{};
};

}  // namespace

Histogram::Histogram() : buckets_(kMaxBuckets, 0) {}

int Histogram::FormulaBucket(uint64_t value) {
  if (value <= 1) return 0;
  const double b = std::log10(static_cast<double>(value)) * kBucketsPerDecade;
  const int idx = static_cast<int>(b);
  return std::min(idx, kMaxBuckets - 1);
}

int Histogram::BucketFor(uint64_t value) {
  static const BucketTable table = [] {
    BucketTable t;
    t.first.push_back(0);
    const int top = FormulaBucket(UINT64_MAX);
    for (int bucket = 1; bucket <= top; ++bucket) {
      // The formula is monotone in value: binary-search its first value.
      uint64_t lo = t.first.back();
      uint64_t hi = UINT64_MAX;
      while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (FormulaBucket(mid) >= bucket) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      t.first.push_back(lo);
    }
    for (int w = 0; w <= 64; ++w) {
      t.start[w] = FormulaBucket(w == 0 ? 0 : 1ull << (w - 1));
    }
    return t;
  }();
  const int last = static_cast<int>(table.first.size()) - 1;
  int bucket = table.start[std::bit_width(value)];
  while (bucket < last && table.first[bucket + 1] <= value) ++bucket;
  return bucket;
}

double Histogram::BucketLower(int bucket) {
  return std::pow(10.0, static_cast<double>(bucket) / kBucketsPerDecade);
}

double Histogram::BucketUpper(int bucket) {
  return std::pow(10.0, static_cast<double>(bucket + 1) / kBucketsPerDecade);
}

void Histogram::Add(uint64_t value) {
  buckets_[BucketFor(value)]++;
  count_++;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kMaxBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (int i = 0; i < kMaxBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets_[i]);
    if (next >= target) {
      // Linear interpolation within the bucket.
      const double frac =
          buckets_[i] == 0 ? 0.0 : (target - cumulative) / buckets_[i];
      double lo = BucketLower(i);
      double hi = BucketUpper(i);
      lo = std::max(lo, static_cast<double>(min()));
      hi = std::min(hi, static_cast<double>(max_));
      if (hi < lo) hi = lo;
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return static_cast<double>(max_);
}

std::string Histogram::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%llu",
                static_cast<unsigned long long>(count_), mean(),
                Quantile(0.5), Quantile(0.95), Quantile(0.99),
                static_cast<unsigned long long>(max_));
  return buf;
}

}  // namespace namtree
