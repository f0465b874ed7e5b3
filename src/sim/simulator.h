#ifndef NAMTREE_SIM_SIMULATOR_H_
#define NAMTREE_SIM_SIMULATOR_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace namtree::sim {

/// Deterministic discrete-event scheduler with a virtual nanosecond clock.
///
/// All concurrency in the simulated NAM cluster (client threads, memory
/// server workers, NIC transfers) is expressed as C++20 coroutines that
/// suspend on awaitables which schedule their resumption here. Events with
/// equal timestamps fire in schedule order (a monotonically increasing
/// sequence number breaks ties), so a given seed always yields the same
/// execution — independent of host core count.
///
/// The tie-break among equal-timestamp events is itself a degree of freedom
/// of the modeled hardware: a real fabric gives no ordering guarantee
/// between verbs that complete "at the same time" on different queue pairs.
/// `ConfigureSchedule` re-permutes that tie-break (and can inject bounded
/// extra delays), turning one test body into a family of equally legal
/// schedules — the search space of the ScheduleExplorer below.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in nanoseconds.
  SimTime now() const { return now_; }

  /// Schedules `h` to resume at absolute virtual time `t` (clamped to now).
  void ScheduleAt(SimTime t, std::coroutine_handle<> h);

  /// Schedules `h` to resume `delta` nanoseconds from now.
  void ScheduleAfter(SimTime delta, std::coroutine_handle<> h) {
    ScheduleAt(now_ + delta, h);
  }

  /// Token identifying a cancellable scheduled resumption.
  using CancelToken = uint64_t;

  /// Like ScheduleAt, but returns a token that `Cancel` accepts. Used for
  /// timers that may be disarmed before they fire (RPC deadlines).
  CancelToken ScheduleCancellableAt(SimTime t, std::coroutine_handle<> h);

  /// Disarms a pending cancellable resumption. The queued event is skipped
  /// at pop time without advancing the clock or resuming the handle. Must
  /// not be called for an event that has already fired (the token would
  /// linger in the cancelled set forever).
  void Cancel(CancelToken token);

  /// Runs until the event queue is empty. Returns the final virtual time.
  SimTime Run();

  /// Runs events with timestamp <= `deadline`; afterwards `now() ==
  /// min(deadline, drain time)`. Returns true if events remain queued. A
  /// deadline already in the past runs nothing and leaves the clock alone.
  bool RunUntil(SimTime deadline);

  /// Selects the schedule of this run. `seed == 0` restores the legacy
  /// FIFO tie-break (bit-identical to runs predating schedule exploration);
  /// any other seed deterministically permutes the firing order of
  /// equal-timestamp events. `max_jitter_ns > 0` additionally delays every
  /// scheduled event by a seed-deterministic amount in [0, max_jitter_ns]
  /// (bounded delay injection). Call before (or between) runs, not while
  /// events that must stay ordered are queued.
  void ConfigureSchedule(uint64_t seed, SimTime max_jitter_ns = 0);

  uint64_t schedule_seed() const { return schedule_seed_; }

  /// Total number of events processed so far (cheap progress/debug metric).
  uint64_t events_processed() const { return events_processed_; }

  /// Number of events currently queued.
  size_t pending_events() const { return size_; }

 private:
  struct Event {
    SimTime time;
    uint64_t tie;  // schedule-seed permutation key among equal timestamps
    uint64_t seq;
    std::coroutine_handle<> handle;
  };

  /// Heap order of the current-time bucket: `a` fires after `b`. Its
  /// events share one timestamp, so (tie, seq) is the whole order.
  static bool FiresAfter(const Event& a, const Event& b) {
    return a.tie != b.tie ? a.tie > b.tie : a.seq > b.seq;
  }

  /// Permutation key for event `seq`: the seq itself under the legacy
  /// schedule, a seed-keyed hash otherwise.
  uint64_t TieBreak(uint64_t seq) const;

  /// Deterministic extra delay for event `seq` (0 without jitter).
  SimTime JitterFor(uint64_t seq) const;

  /// Queues `ev` (ev.time >= base_) in the bucket of the highest bit where
  /// its time differs from base_; equal times join the current-time heap.
  void Push(const Event& ev);

  /// Earliest queued time, read without moving base_. Queue non-empty.
  SimTime PeekTime() const;

  /// Removes the next event in (time, tie, seq) order. Queue non-empty.
  Event Pop();

  /// Bucket of time `t` >= base_: 0 when equal, else 1 + the index of the
  /// highest bit where `t` and base_ differ.
  int BucketOf(SimTime t) const;

  static constexpr int kBuckets = 64;
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  // Monotone radix queue on event time (docs/simulator.md, "Event queue").
  // buckets_[0] is a heap, ordered by FiresAfter, of the events at base_;
  // buckets_[b] (b >= 1) holds the events whose time first differs from
  // base_ at bit b-1, unordered. base_ never passes now() while user code
  // can schedule, so every new event lands at or above it.
  std::array<std::vector<Event>, kBuckets> buckets_;
  std::array<SimTime, kBuckets> bucket_min_ = [] {
    std::array<SimTime, kBuckets> mins;
    mins.fill(kNever);
    return mins;
  }();
  uint64_t occupied_ = 0;  // bit b set iff buckets_[b] (b >= 1) non-empty
  SimTime base_ = 0;
  size_t size_ = 0;
  std::unordered_set<uint64_t> cancelled_;  // seq numbers of disarmed events
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  // namtree-lint: metric-ok(engine-internal diagnostic beneath the layer that owns the registry; read via accessor, never plumbed into results)
  uint64_t events_processed_ = 0;
  uint64_t schedule_seed_ = 0;
  SimTime schedule_jitter_ns_ = 0;
};

/// Replays a deterministic test body across a range of schedule seeds and
/// shrinks to the smallest failing seed.
///
/// The body builds its *own* simulator/fabric/cluster for every invocation
/// (passing the seed through FabricConfig::schedule_seed or directly to
/// Simulator::ConfigureSchedule) and returns OK when the run was clean —
/// typically Fabric::CheckAuditClean() plus any test-specific invariants.
/// Seeds are explored in ascending order, so the first failure reported is
/// already the minimal seed of the explored range; the explorer then
/// re-runs that seed once to confirm the failure replays deterministically
/// (the property CI relies on for one-command reproduction).
class ScheduleExplorer {
 public:
  struct Options {
    /// First seed explored. Include 0 to also cover the legacy FIFO order.
    uint64_t base_seed = 1;
    /// Number of consecutive seeds [base_seed, base_seed + num_seeds).
    uint32_t num_seeds = 8;
    /// Stop at the first failing seed (it is minimal by construction).
    bool stop_at_first_failure = true;
    /// Re-run the first failing seed to verify deterministic replay.
    bool confirm_replay = true;
  };

  /// One full build-run-check cycle under the given schedule seed.
  using Body = std::function<Status(uint64_t schedule_seed)>;

  struct Report {
    uint32_t seeds_run = 0;
    std::vector<uint64_t> failing_seeds;
    uint64_t first_failing_seed = 0;  ///< valid when !clean()
    Status first_failure;             ///< OK when clean()
    /// True when the confirming re-run of the first failing seed failed
    /// the same way (or no confirmation was requested/needed).
    bool replay_deterministic = true;

    bool clean() const { return failing_seeds.empty(); }
    std::string ToString() const;
  };

  static Report Explore(const Options& options, const Body& body);
};

}  // namespace namtree::sim

#endif  // NAMTREE_SIM_SIMULATOR_H_
