// Unit tests for the discrete-event simulator core: event ordering, virtual
// time, coroutine tasks, delays, events, worker pools and links.

#include <gtest/gtest.h>

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
