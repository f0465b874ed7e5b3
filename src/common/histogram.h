#ifndef NAMTREE_COMMON_HISTOGRAM_H_
#define NAMTREE_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace namtree {

/// Log-bucketed histogram for latency measurements (nanoseconds, but any
/// non-negative 64-bit metric works). Buckets grow geometrically so the
/// relative quantile error is bounded by the per-decade resolution.
class Histogram {
 public:
  Histogram();

  void Add(uint64_t value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// Returns the value at quantile `q` in [0, 1] (e.g. 0.5 = median,
  /// 0.99 = p99) by interpolating within the containing bucket.
  double Quantile(double q) const;

  /// One-line summary: count/mean/p50/p95/p99/max.
  std::string ToString() const;

  /// The bucket `value` is counted in: floor(20 * log10(value)), 0 for
  /// values up to 1. Read from a table derived from FormulaBucket.
  static int BucketFor(uint64_t value);
  /// The defining log10 formula BucketFor's table reproduces.
  static int FormulaBucket(uint64_t value);

 private:
  static constexpr int kBucketsPerDecade = 20;
  static constexpr int kMaxBuckets = 400;  // covers ~1ns .. 10^20ns

  static double BucketLower(int bucket);
  static double BucketUpper(int bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

}  // namespace namtree

#endif  // NAMTREE_COMMON_HISTOGRAM_H_
