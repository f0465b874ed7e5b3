#ifndef NAMTREE_SIM_LINK_H_
#define NAMTREE_SIM_LINK_H_

#include <algorithm>
#include <cstdint>

#include "common/units.h"

namespace namtree::sim {

/// A serialized transmission channel (one direction of a NIC port).
///
/// Transfers are granted in request order: a transfer requested at virtual
/// time `t` starts when the channel becomes free and occupies it for
/// `bytes / bandwidth`. This models head-of-line queueing at a saturated
/// port, which is exactly the bottleneck the paper's coarse-grained designs
/// hit under skew.
class Link {
 public:
  /// `bytes_per_second`: channel capacity, e.g. 6.8e9 for InfiniBand FDR 4x.
  explicit Link(double bytes_per_second)
      : bytes_per_ns_(bytes_per_second / 1e9) {}

  /// Reserves the channel for a `bytes`-sized transfer requested at `now`.
  /// Returns the virtual time at which the last byte has left the channel.
  SimTime ReserveTransfer(SimTime now, uint64_t bytes) {
    const SimTime start = std::max(now, next_free_);
    const SimTime duration = TransferDuration(bytes);
    next_free_ = start + duration;
    total_bytes_ += bytes;
    total_transfers_++;
    busy_time_ += duration;
    return next_free_;
  }

  /// Reserves the channel for a transfer whose first byte arrives at
  /// `ideal_start` (e.g. a transfer already serialized upstream): if the
  /// channel is free it finishes at `ideal_start + duration`, otherwise it
  /// queues behind earlier traffic. Used for the receive side of a
  /// pipelined transfer so an uncontended path is not double-charged.
  SimTime ReserveArrival(SimTime ideal_start, uint64_t bytes) {
    const SimTime start = std::max(ideal_start, next_free_);
    const SimTime duration = TransferDuration(bytes);
    next_free_ = start + duration;
    total_bytes_ += bytes;
    total_transfers_++;
    busy_time_ += duration;
    return next_free_;
  }

  /// Reserves the channel for a fixed occupancy (no byte accounting): used
  /// to model a NIC processing engine serializing verb execution.
  SimTime ReserveOccupancy(SimTime now, SimTime duration) {
    const SimTime start = std::max(now, next_free_);
    next_free_ = start + duration;
    total_transfers_++;
    busy_time_ += duration;
    return next_free_;
  }

  /// Pure cost of `bytes` on an idle channel: the quotient rounded up.
  /// Truncation plus one when the quotient is not whole is exactly the
  /// ceiling of a non-negative quotient, without a libm call.
  SimTime TransferDuration(uint64_t bytes) const {
    const double q = static_cast<double>(bytes) / bytes_per_ns_;
    const SimTime whole = static_cast<SimTime>(q);
    return whole + (static_cast<double>(whole) < q ? 1 : 0);
  }

  /// First instant a new transfer could begin.
  SimTime next_free() const { return next_free_; }

  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_transfers() const { return total_transfers_; }
  SimTime busy_time() const { return busy_time_; }

  double bytes_per_second() const { return bytes_per_ns_ * 1e9; }

  void ResetStats() {
    total_bytes_ = 0;
    total_transfers_ = 0;
    busy_time_ = 0;
  }

 private:
  double bytes_per_ns_;
  SimTime next_free_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t total_transfers_ = 0;
  SimTime busy_time_ = 0;
};

}  // namespace namtree::sim

#endif  // NAMTREE_SIM_LINK_H_
