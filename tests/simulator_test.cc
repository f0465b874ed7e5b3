// Unit tests for the discrete-event simulator core: event ordering, virtual
// time, coroutine tasks, delays, events, worker pools and links.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <queue>
#include <random>
#include <vector>

#include "sim/link.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace namtree::sim {
namespace {

Task<> RecordAt(Simulator& s, SimTime delay, int id, std::vector<int>* order) {
  co_await Delay(s, delay);
  order->push_back(id);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  Spawn(s, RecordAt(s, 300, 3, &order));
  Spawn(s, RecordAt(s, 100, 1, &order));
  Spawn(s, RecordAt(s, 200, 2, &order));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 300);
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) Spawn(s, RecordAt(s, 50, i, &order));
  s.Run();
  std::vector<int> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, ZeroDelayIsAYieldPoint) {
  Simulator s;
  std::vector<int> order;
  Spawn(s, RecordAt(s, 0, 1, &order));
  Spawn(s, RecordAt(s, 0, 2, &order));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 0);
}

Task<int> Answer(Simulator& s) {
  co_await Delay(s, 10);
  co_return 42;
}

Task<> AwaitChild(Simulator& s, int* out) {
  *out = co_await Answer(s);
}

TEST(SimulatorTest, TaskReturnsValueThroughAwait) {
  Simulator s;
  int out = 0;
  Spawn(s, AwaitChild(s, &out));
  s.Run();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(s.now(), 10);
}

Task<> NestedDelays(Simulator& s, std::vector<SimTime>* stamps) {
  stamps->push_back(s.now());
  co_await Delay(s, 5);
  stamps->push_back(s.now());
  co_await Delay(s, 7);
  stamps->push_back(s.now());
}

TEST(SimulatorTest, DelaysAccumulate) {
  Simulator s;
  std::vector<SimTime> stamps;
  Spawn(s, NestedDelays(s, &stamps));
  s.Run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{0, 5, 12}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  std::vector<int> order;
  Spawn(s, RecordAt(s, 100, 1, &order));
  Spawn(s, RecordAt(s, 200, 2, &order));
  const bool remaining = s.RunUntil(150);
  EXPECT_TRUE(remaining);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), 150);
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

Task<> Waiter(SimEvent& ev, Simulator& s, std::vector<SimTime>* stamps) {
  co_await ev;
  stamps->push_back(s.now());
}

Task<> Setter(Simulator& s, SimEvent& ev, SimTime at) {
  co_await Delay(s, at);
  ev.Set();
}

TEST(SimulatorTest, SimEventWakesAllWaiters) {
  Simulator s;
  SimEvent ev(s);
  std::vector<SimTime> stamps;
  Spawn(s, Waiter(ev, s, &stamps));
  Spawn(s, Waiter(ev, s, &stamps));
  Spawn(s, Setter(s, ev, 77));
  s.Run();
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], 77);
  EXPECT_EQ(stamps[1], 77);
}

TEST(SimulatorTest, SimEventAwaitAfterSetCompletesImmediately) {
  Simulator s;
  SimEvent ev(s);
  ev.Set();
  std::vector<SimTime> stamps;
  Spawn(s, Waiter(ev, s, &stamps));
  s.Run();
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0], 0);
}

Task<> UseWorker(Simulator& s, WorkerPool& pool, SimTime hold,
                 std::vector<SimTime>* finish) {
  co_await pool.Acquire();
  co_await Delay(s, hold);
  pool.Release();
  finish->push_back(s.now());
}

TEST(WorkerPoolTest, CapacityLimitsConcurrency) {
  Simulator s;
  WorkerPool pool(s, 2);
  std::vector<SimTime> finish;
  for (int i = 0; i < 6; ++i) Spawn(s, UseWorker(s, pool, 100, &finish));
  s.Run();
  // 6 jobs, 2 workers, 100ns each -> waves at 100/200/300.
  EXPECT_EQ(finish, (std::vector<SimTime>{100, 100, 200, 200, 300, 300}));
  EXPECT_EQ(pool.total_grants(), 6u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(WorkerPoolTest, FifoGrantOrder) {
  Simulator s;
  WorkerPool pool(s, 1);
  std::vector<SimTime> finish;
  for (int i = 0; i < 4; ++i) Spawn(s, UseWorker(s, pool, 10, &finish));
  s.Run();
  EXPECT_EQ(finish, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(LinkTest, TransfersSerialize) {
  Link link(1e9);  // 1 byte per ns
  EXPECT_EQ(link.ReserveTransfer(0, 1000), 1000);
  EXPECT_EQ(link.ReserveTransfer(0, 1000), 2000);    // queued behind first
  EXPECT_EQ(link.ReserveTransfer(5000, 500), 5500);  // idle gap
  EXPECT_EQ(link.total_bytes(), 2500u);
  EXPECT_EQ(link.total_transfers(), 3u);
  EXPECT_EQ(link.busy_time(), 2500);
}

TEST(LinkTest, ReserveArrivalDoesNotDoubleChargeIdlePath) {
  Link link(1e9);
  // First byte arrives at t=100, 50 bytes -> done at 150.
  EXPECT_EQ(link.ReserveArrival(100, 50), 150);
  // Busy channel: next transfer queues at 150.
  EXPECT_EQ(link.ReserveArrival(100, 50), 200);
}

TEST(LinkTest, OccupancyReservations) {
  Link link(1e9);
  EXPECT_EQ(link.ReserveOccupancy(10, 5), 15);
  EXPECT_EQ(link.ReserveOccupancy(0, 5), 20);  // serialized behind previous
  EXPECT_EQ(link.total_bytes(), 0u);
}

TEST(LinkTest, TransferDurationRoundsUp) {
  Link link(3e9);  // 3 bytes per ns
  EXPECT_EQ(link.TransferDuration(10), 4);  // ceil(10/3)
}

// The libm-free ceiling must equal std::ceil of the same quotient: for
// every transfer size up to 1 MiB at the port and bus bandwidths the fabric
// configures by default (and a few others), then on a random sweep of
// sizes and bandwidths.
TEST(LinkTest, TransferDurationMatchesStdCeil) {
  auto reference = [](double bytes_per_second, uint64_t bytes) {
    return static_cast<SimTime>(std::ceil(static_cast<double>(bytes) /
                                          (bytes_per_second / 1e9)));
  };
  for (const double bandwidth : {6.8e9, 25e9, 1e9, 3e9, 12.5e9, 5.6e10}) {
    const Link link(bandwidth);
    for (uint64_t bytes = 0; bytes <= (1u << 20); ++bytes) {
      ASSERT_EQ(link.TransferDuration(bytes), reference(bandwidth, bytes))
          << bytes << " bytes at " << bandwidth << " B/s";
    }
  }
  std::mt19937_64 rng(17);
  for (int i = 0; i < 1000000; ++i) {
    const double bandwidth =
        1e6 + std::uniform_real_distribution<double>(0, 1e11)(rng);
    // Up to 2^40 bytes: the quotient stays far inside SimTime's range.
    const uint64_t bytes = rng() >> (24 + rng() % 40);
    const Link link(bandwidth);
    ASSERT_EQ(link.TransferDuration(bytes), reference(bandwidth, bytes))
        << bytes << " bytes at " << bandwidth << " B/s";
  }
}

TEST(TaskTest, MoveSemantics) {
  Simulator s;
  std::vector<int> order;
  Task<> t = RecordAt(s, 10, 1, &order);
  EXPECT_TRUE(t.valid());
  Task<> moved = std::move(t);
  EXPECT_FALSE(t.valid());
  EXPECT_TRUE(moved.valid());
  Spawn(s, std::move(moved));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(TaskTest, UnstartedTaskIsDestroyedCleanly) {
  Simulator s;
  std::vector<int> order;
  {
    Task<> t = RecordAt(s, 10, 1, &order);
    // Dropped without Spawn/await: the lazily-started frame must free.
  }
  s.Run();
  EXPECT_TRUE(order.empty());
}

TEST(SimulatorTest, DelayUntilPastClampsToNow) {
  Simulator s;
  struct Runner {
    static Task<> Go(Simulator& s, std::vector<SimTime>* stamps) {
      co_await Delay(s, 100);
      co_await DelayUntil(s, 50);  // already past: resumes "immediately"
      stamps->push_back(s.now());
    }
  };
  std::vector<SimTime> stamps;
  Spawn(s, Runner::Go(s, &stamps));
  s.Run();
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0], 100);
}

TEST(SimulatorTest, RunUntilExactBoundaryIncludesEvent) {
  Simulator s;
  std::vector<int> order;
  Spawn(s, RecordAt(s, 100, 1, &order));
  EXPECT_FALSE(s.RunUntil(100));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilPastDrainLeavesClockAtLastEvent) {
  Simulator s;
  std::vector<int> order;
  Spawn(s, RecordAt(s, 100, 1, &order));
  EXPECT_FALSE(s.RunUntil(500));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), 100);  // min(deadline, drain time)
}

Task<> AwaitWithDeadline(DeadlineEvent& ev, SimTime deadline, bool* fired) {
  *fired = co_await ev.AwaitUntil(deadline);
}

Task<> SetAt(Simulator& s, SimTime delay, DeadlineEvent& ev) {
  co_await Delay(s, delay);
  ev.Set();
}

TEST(SimulatorTest, RunUntilIgnoresCancelledFarFutureTimer) {
  Simulator s;
  DeadlineEvent ev(s);
  bool fired = false;
  Spawn(s, AwaitWithDeadline(ev, 1'000'000, &fired));
  Spawn(s, SetAt(s, 100, ev));
  // The disarmed timer at 1e6 is still queued but must not move the clock.
  EXPECT_FALSE(s.RunUntil(2'000'000));
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 100);
}

/// Starts `task` as a root coroutine at absolute time `t` (Spawn starts it
/// at now()).
void SpawnAt(Simulator& s, SimTime t, Task<> task) {
  auto h = task.Release();
  h.promise().detached = true;
  s.ScheduleAt(t, h);
}

Task<> Mark(Simulator& s, int id, std::vector<int>* order,
            std::vector<SimTime>* stamps) {
  order->push_back(id);
  stamps->push_back(s.now());
  co_return;
}

// A RunUntil that stops short of the queue's minimum must not commit the
// queue to that minimum: an event scheduled afterwards for an earlier time
// still fires first.
TEST(SimulatorTest, RunUntilThenEarlierScheduleKeepsOrder) {
  Simulator s;
  std::vector<int> order;
  std::vector<SimTime> stamps;
  SpawnAt(s, 1000, Mark(s, 1, &order, &stamps));
  EXPECT_TRUE(s.RunUntil(100));
  EXPECT_TRUE(s.RunUntil(200));
  EXPECT_EQ(s.now(), 200);
  Spawn(s, RecordAt(s, 300, 2, &order));  // fires at 500
  EXPECT_EQ(s.Run(), 1000);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(stamps, (std::vector<SimTime>{1000}));
}

// Discarding a cancelled minimum leaves the clock where it was; events
// scheduled afterwards between the old clock and the cancelled time keep
// their order.
TEST(SimulatorTest, CancelledMinimumThenEarlierScheduleKeepsOrder) {
  Simulator s;
  s.Cancel(s.ScheduleCancellableAt(1000, std::noop_coroutine()));
  EXPECT_EQ(s.Run(), 0);
  std::vector<int> order;
  std::vector<SimTime> stamps;
  SpawnAt(s, 1001, Mark(s, 2, &order, &stamps));
  SpawnAt(s, 500, Mark(s, 1, &order, &stamps));
  EXPECT_EQ(s.Run(), 1001);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(stamps, (std::vector<SimTime>{500, 1001}));

  // The same through RunUntil: the cancelled event is the only one due.
  s.Cancel(s.ScheduleCancellableAt(3000, std::noop_coroutine()));
  EXPECT_FALSE(s.RunUntil(4000));
  EXPECT_EQ(s.now(), 1001);
  SpawnAt(s, 3001, Mark(s, 4, &order, &stamps));
  SpawnAt(s, 2000, Mark(s, 3, &order, &stamps));
  EXPECT_EQ(s.Run(), 3001);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// ---- Differential check against a reference event queue -----------------

/// splitmix64, the mixer behind ConfigureSchedule's tie-break and jitter.
/// Restated here so the reference model pins the published schedule
/// function rather than sharing the simulator's code.
uint64_t RefMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Reference model of the simulator's event order: a binary heap on
/// (time, tie, seq), fed the same sequence numbers, tie-break keys and
/// jitter that ConfigureSchedule documents.
class ReferenceQueue {
 public:
  struct Entry {
    SimTime time;
    uint64_t tie;
    uint64_t seq;
    int id;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      if (tie != o.tie) return tie > o.tie;
      return seq > o.seq;
    }
  };

  ReferenceQueue(uint64_t seed, SimTime jitter)
      : seed_(seed), jitter_(jitter) {}

  /// Mirrors ScheduleAt at clock `now`; returns the event's seq.
  uint64_t Schedule(SimTime now, SimTime t, int id) {
    const uint64_t seq = next_seq_++;
    const uint64_t tie = seed_ == 0 ? seq : RefMix64(seq ^ RefMix64(seed_));
    const SimTime jitter =
        jitter_ <= 0
            ? 0
            : static_cast<SimTime>(
                  RefMix64(seq * 0x632BE59BD9B4E019ull + seed_) %
                  static_cast<uint64_t>(jitter_ + 1));
    heap_.push(Entry{std::max(t, now) + jitter, tie, seq, id});
    return seq;
  }

  void Cancel(uint64_t seq) { cancelled_.push_back(seq); }

  /// Drops cancelled entries at the head; then returns the next live entry
  /// due by `deadline`, or nullptr when none is.
  const Entry* Next(SimTime deadline) {
    while (!heap_.empty() && heap_.top().time <= deadline) {
      auto it = std::find(cancelled_.begin(), cancelled_.end(),
                          heap_.top().seq);
      if (it == cancelled_.end()) return &heap_.top();
      cancelled_.erase(it);
      heap_.pop();
    }
    return nullptr;
  }

  void Pop() { heap_.pop(); }
  size_t size() const { return heap_.size(); }

 private:
  uint64_t seed_;
  SimTime jitter_;
  uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::vector<uint64_t> cancelled_;
};

/// Coroutine that reports its resumption once, then parks at its final
/// suspend point until the harness destroys it.
struct Probe {
  struct promise_type {
    Probe get_return_object() {
      return Probe{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

class DifferentialHarness;
Probe Fire(DifferentialHarness* harness, int id);

/// Drives a Simulator and a ReferenceQueue with one random script: events
/// scheduled from outside the run and from inside handlers (delays of 0,
/// repeated absolute times, short and long gaps), cancels of armed timers,
/// and RunUntil deadlines. Every resumption is checked against the model's
/// next event (same id, same now()).
class DifferentialHarness {
 public:
  DifferentialHarness(uint64_t script_seed, uint64_t schedule_seed,
                     SimTime jitter)
      : ref_(schedule_seed, jitter), rng_(script_seed) {
    sim_.ConfigureSchedule(schedule_seed, jitter);
  }

  ~DifferentialHarness() {
    for (auto h : probes_) h.destroy();
  }

  void RunScript(int rounds) {
    for (int round = 0; round < rounds && !::testing::Test::HasFailure();
         ++round) {
      const int outside = static_cast<int>(Draw(4));
      for (int i = 0; i < outside; ++i) ScheduleRandom();
      if (Draw(3) == 0) CancelRandom();
      if (Draw(16) == 0) {
        RunPhase(std::numeric_limits<SimTime>::max());
      } else {
        const SimTime span = Draw(4) == 0 ? 0 : Draw(2) == 0 ? Draw(40)
                                                             : Draw(3000);
        RunPhase(sim_.now() + span);
      }
    }
    RunPhase(std::numeric_limits<SimTime>::max());
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_GT(resumed_, 0u);
  }

  void OnResume(int id) {
    const ReferenceQueue::Entry* expected = ref_.Next(deadline_);
    ASSERT_NE(expected, nullptr) << "simulator resumed event " << id
                                 << " the model has nothing due by "
                                 << deadline_;
    EXPECT_EQ(expected->id, id) << "at t=" << sim_.now();
    EXPECT_EQ(expected->time, sim_.now()) << "event " << id;
    ref_now_ = expected->time;
    ref_.Pop();
    resumed_++;
    std::erase_if(armed_, [id](const Armed& a) { return a.id == id; });
    // Handlers schedule more work and disarm timers while the run is on
    // (0.8 new events per resumption on average, so every drain ends).
    const int inside = Draw(5) == 0 ? 2 : static_cast<int>(Draw(2));
    for (int i = 0; i < inside; ++i) ScheduleRandom();
    if (Draw(5) == 0) CancelRandom();
  }

 private:
  struct Armed {
    int id;
    Simulator::CancelToken token;
  };

  uint64_t Draw(uint64_t n) { return rng_() % n; }

  void RunPhase(SimTime deadline) {
    deadline_ = deadline;
    bool remaining = false;
    if (deadline == std::numeric_limits<SimTime>::max()) {
      sim_.Run();
    } else {
      remaining = sim_.RunUntil(deadline);
    }
    if (::testing::Test::HasFatalFailure()) return;
    // Nothing live may be left due by the deadline; cancelled entries due
    // by then were discarded by the simulator too.
    EXPECT_EQ(ref_.Next(deadline), nullptr) << "run stopped early";
    if (ref_.size() > 0 && deadline != std::numeric_limits<SimTime>::max()) {
      ref_now_ = deadline;
    }
    EXPECT_EQ(sim_.now(), ref_now_);
    EXPECT_EQ(sim_.pending_events(), ref_.size());
    if (deadline != std::numeric_limits<SimTime>::max()) {
      EXPECT_EQ(remaining, ref_.size() > 0);
    }
  }

  void ScheduleRandom() {
    const int id = static_cast<int>(probes_.size());
    probes_.push_back(Fire(this, id).handle);
    const SimTime now = sim_.now();
    SimTime t = now;
    switch (Draw(6)) {
      case 0:  // a zero delay: a yield point at the current time
        break;
      case 1:  // an absolute time shared with earlier events
        t = anchors_[Draw(anchors_.size())];
        break;
      case 2:
        t = now + static_cast<SimTime>(Draw(4));
        break;
      case 3:
        t = now + static_cast<SimTime>(Draw(200));
        break;
      case 4:
        t = now + static_cast<SimTime>(Draw(5000));
        break;
      default:
        t = now + static_cast<SimTime>(Draw(1 << 20));
        break;
    }
    if (Draw(8) == 0) anchors_[Draw(anchors_.size())] = t;
    const uint64_t seq = ref_.Schedule(ref_now_, t, id);
    if (Draw(4) == 0) {
      const Simulator::CancelToken token =
          sim_.ScheduleCancellableAt(t, probes_.back());
      EXPECT_EQ(token, seq);
      armed_.push_back(Armed{id, token});
    } else {
      sim_.ScheduleAt(t, probes_.back());
    }
  }

  void CancelRandom() {
    if (armed_.empty()) return;
    const size_t k = Draw(armed_.size());
    sim_.Cancel(armed_[k].token);
    ref_.Cancel(armed_[k].token);
    armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(k));
  }

  Simulator sim_;
  ReferenceQueue ref_;
  std::mt19937_64 rng_;
  SimTime ref_now_ = 0;
  SimTime deadline_ = 0;
  uint64_t resumed_ = 0;
  std::vector<SimTime> anchors_ = std::vector<SimTime>(4, 0);
  std::vector<std::coroutine_handle<>> probes_;
  std::vector<Armed> armed_;
};

Probe Fire(DifferentialHarness* harness, int id) {
  harness->OnResume(id);
  co_return;
}

TEST(SimulatorTest, EventOrderMatchesReferenceQueue) {
  for (const uint64_t schedule_seed : {0u, 1u, 7u}) {
    for (const SimTime jitter : {SimTime{0}, SimTime{50}}) {
      SCOPED_TRACE(::testing::Message() << "schedule_seed=" << schedule_seed
                                        << " jitter=" << jitter);
      DifferentialHarness harness(/*script_seed=*/0xD1FF + schedule_seed,
                                schedule_seed, jitter);
      harness.RunScript(/*rounds=*/400);
    }
  }
}

Task<int> ChainedValue(Simulator& s, int depth) {
  if (depth == 0) co_return 1;
  co_await Delay(s, 1);
  const int below = co_await ChainedValue(s, depth - 1);
  co_return below * 2;
}

Task<> CollectChain(Simulator& s, int* out) {
  *out = co_await ChainedValue(s, 20);
}

TEST(TaskTest, DeepAwaitChains) {
  Simulator s;
  int out = 0;
  Spawn(s, CollectChain(s, &out));
  s.Run();
  EXPECT_EQ(out, 1 << 20);
  EXPECT_EQ(s.now(), 20);
}

// Determinism: two identical runs produce identical event traces.
TEST(SimulatorTest, DeterministicReplay) {
  auto run = [] {
    Simulator s;
    WorkerPool pool(s, 3);
    std::vector<SimTime> finish;
    for (int i = 0; i < 20; ++i) {
      Spawn(s, UseWorker(s, pool, 13 + (i % 7), &finish));
    }
    s.Run();
    return finish;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace namtree::sim
