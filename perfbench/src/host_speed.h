// A frozen CPU-speed reference for the ledger's host-time metric.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// The median SpeedReference::NsPerStep() reading on the calibration host,
/// a shared 4-vCPU Xeon VM (README.md, "First baseline"); host_ns_per_op is
/// scaled to this speed.
constexpr double kReferenceNsPerStep = 250.0;

/// Times a fixed loop that mixes what the simulator's host path does: a
/// binary-heap event queue, hash-map probes and 1 KiB page copies out of a
/// 16 MiB arena. The loop lives here, not in src/, so no change to the
/// repository moves it; run between measured slices, it tracks how fast
/// the shared host runs at that moment (co-tenants slow both alike).
class SpeedReference {
 public:
  SpeedReference();

  /// Host CPU ns per step of one short burst of the loop (~5 ms).
  double NsPerStep();

 private:
  struct Event {
    uint64_t time;
    uint32_t page;
    bool operator>(const Event& o) const { return time > o.time; }
  };

  std::vector<uint8_t> arena_;
  std::vector<uint8_t> page_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::unordered_map<uint64_t, uint64_t> table_;
  uint64_t state_ = 0x9E3779B97F4A7C15ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
