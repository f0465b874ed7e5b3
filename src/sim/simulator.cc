#include "sim/simulator.h"

#include <algorithm>
#include <bit>

namespace namtree::sim {

namespace {

/// splitmix64: a cheap, high-quality 64-bit mixer. Used to derive the
/// per-event permutation keys and jitter amounts from (seed, seq) so every
/// schedule is a pure function of the seed — portable across hosts and
/// standard libraries.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

void Simulator::ConfigureSchedule(uint64_t seed, SimTime max_jitter_ns) {
  schedule_seed_ = seed;
  schedule_jitter_ns_ = max_jitter_ns;
}

uint64_t Simulator::TieBreak(uint64_t seq) const {
  if (schedule_seed_ == 0) return seq;
  return Mix64(seq ^ Mix64(schedule_seed_));
}

SimTime Simulator::JitterFor(uint64_t seq) const {
  if (schedule_jitter_ns_ <= 0) return 0;
  const uint64_t h = Mix64(seq * 0x632BE59BD9B4E019ull + schedule_seed_);
  return static_cast<SimTime>(
      h % static_cast<uint64_t>(schedule_jitter_ns_ + 1));
}

int Simulator::BucketOf(SimTime t) const {
  return static_cast<int>(std::bit_width(static_cast<uint64_t>(t ^ base_)));
}

void Simulator::Push(const Event& ev) {
  size_++;
  const int b = BucketOf(ev.time);
  if (b == 0) {
    buckets_[0].push_back(ev);
    std::push_heap(buckets_[0].begin(), buckets_[0].end(), FiresAfter);
    return;
  }
  buckets_[b].push_back(ev);
  bucket_min_[b] = std::min(bucket_min_[b], ev.time);
  occupied_ |= uint64_t{1} << b;
}

SimTime Simulator::PeekTime() const {
  return buckets_[0].empty() ? bucket_min_[std::countr_zero(occupied_)]
                             : base_;
}

Simulator::Event Simulator::Pop() {
  std::vector<Event>& current = buckets_[0];
  if (current.empty()) {
    // Advance base_ to the lowest bucket's earliest time and spread that
    // bucket over the buckets below it. Higher buckets keep their index:
    // the new base agrees with the old one on every bit above b-1.
    const int b = std::countr_zero(occupied_);
    base_ = bucket_min_[b];
    for (const Event& ev : buckets_[b]) {
      const int to = BucketOf(ev.time);
      buckets_[to].push_back(ev);
      if (to != 0) {
        bucket_min_[to] = std::min(bucket_min_[to], ev.time);
        occupied_ |= uint64_t{1} << to;
      }
    }
    buckets_[b].clear();
    bucket_min_[b] = kNever;
    occupied_ &= ~(uint64_t{1} << b);
    std::make_heap(current.begin(), current.end(), FiresAfter);
  }
  std::pop_heap(current.begin(), current.end(), FiresAfter);
  const Event ev = current.back();
  current.pop_back();
  size_--;
  return ev;
}

void Simulator::ScheduleAt(SimTime t, std::coroutine_handle<> h) {
  const uint64_t seq = next_seq_++;
  Push(Event{std::max(t, now_) + JitterFor(seq), TieBreak(seq), seq, h});
}

Simulator::CancelToken Simulator::ScheduleCancellableAt(
    SimTime t, std::coroutine_handle<> h) {
  const uint64_t seq = next_seq_++;
  Push(Event{std::max(t, now_) + JitterFor(seq), TieBreak(seq), seq, h});
  return seq;
}

void Simulator::Cancel(CancelToken token) { cancelled_.insert(token); }

SimTime Simulator::Run() {
  while (size_ > 0) {
    const Event ev = Pop();
    // A cancelled event is discarded without touching the clock: a disarmed
    // far-future timer must not stretch the run's final virtual time. Most
    // runs cancel nothing, so the hash probe is skipped while none is armed.
    if (!cancelled_.empty() && cancelled_.erase(ev.seq) != 0) continue;
    now_ = ev.time;
    events_processed_++;
    ev.handle.resume();
  }
  // A discarded cancel may have left base_ past the clock; the queue is
  // empty, so re-anchoring it is free.
  base_ = now_;
  return now_;
}

bool Simulator::RunUntil(SimTime deadline) {
  // PeekTime does not move base_: committing the queue to an event past the
  // deadline would misfile events scheduled before it afterwards.
  while (size_ > 0 && PeekTime() <= deadline) {
    const Event ev = Pop();
    if (!cancelled_.empty() && cancelled_.erase(ev.seq) != 0) continue;
    now_ = ev.time;
    events_processed_++;
    ev.handle.resume();
  }
  if (size_ == 0) {
    base_ = now_;
    return false;
  }
  // base_ is at most the last popped time, itself <= deadline.
  now_ = std::max(now_, deadline);
  return true;
}

std::string ScheduleExplorer::Report::ToString() const {
  std::string s = "explored " + std::to_string(seeds_run) + " seed(s): ";
  if (clean()) return s + "all clean";
  s += std::to_string(failing_seeds.size()) + " failing, first seed " +
       std::to_string(first_failing_seed) + " (" + first_failure.ToString() +
       "), replay " +
       (replay_deterministic ? "deterministic" : "NOT deterministic");
  return s;
}

ScheduleExplorer::Report ScheduleExplorer::Explore(const Options& options,
                                                   const Body& body) {
  Report report;
  for (uint32_t i = 0; i < options.num_seeds; ++i) {
    const uint64_t seed = options.base_seed + i;
    const Status status = body(seed);
    report.seeds_run++;
    if (status.ok()) continue;
    report.failing_seeds.push_back(seed);
    if (report.failing_seeds.size() == 1) {
      report.first_failing_seed = seed;
      report.first_failure = status;
    }
    if (options.stop_at_first_failure) break;
  }
  if (!report.clean() && options.confirm_replay) {
    // Ascending exploration already makes the reported seed minimal; the
    // replay run proves the seed alone reproduces the failure.
    const Status replay = body(report.first_failing_seed);
    report.replay_deterministic =
        !replay.ok() && replay.code() == report.first_failure.code();
  }
  return report;
}

}  // namespace namtree::sim
