#ifndef NAMTREE_SIM_TASK_H_
#define NAMTREE_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <utility>

#include "sim/simulator.h"

namespace namtree::sim {

namespace internal {

/// Recycles coroutine frames through per-thread free lists, one per 64-byte
/// size class up to 2 KiB, so the simulator's steady state (every verb,
/// RPC and operation runs as a short-lived coroutine) stops calling into
/// the heap. Sanitizer builds keep plain new/delete so use-after-free of a
/// frame is still caught.
class FramePool {
 public:
  static void* Allocate(std::size_t bytes) {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    const std::size_t size_class = (bytes + kClassBytes - 1) / kClassBytes;
    if (size_class < kClasses) {
      Node*& head = Lists().head[size_class];
      if (head != nullptr) return std::exchange(head, head->next);
      return ::operator new(size_class * kClassBytes);
    }
#endif
    return ::operator new(bytes);
  }

  static void Free(void* frame, std::size_t bytes) {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    const std::size_t size_class = (bytes + kClassBytes - 1) / kClassBytes;
    if (size_class < kClasses) {
      Node*& head = Lists().head[size_class];
      head = new (frame) Node{head};
      return;
    }
#endif
    ::operator delete(frame, bytes);
  }

 private:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kClasses = 33;  // frames up to 2 KiB
  struct Node {
    Node* next;
  };
  struct FreeLists {
    Node* head[kClasses] = {};
    ~FreeLists() {
      for (Node*& list : head) {
        while (list != nullptr) {
          ::operator delete(std::exchange(list, list->next));
        }
      }
    }
  };
  static FreeLists& Lists() {
    static thread_local FreeLists lists;
    return lists;
  }
};

/// Shared promise behaviour for Task<T> and Task<void>: lazy start, resume
/// of the awaiting parent on completion (symmetric transfer), and
/// self-destruction for detached (Spawn-ed) root coroutines.
struct PromiseBase {
  std::coroutine_handle<> continuation;
  bool detached = false;

  static void* operator new(std::size_t bytes) {
    return FramePool::Allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) {
    FramePool::Free(frame, bytes);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.continuation) return p.continuation;
      if (p.detached) h.destroy();
      return std::noop_coroutine();
    }

    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }

  // The library is exception-free by design (Status returns); any escaping
  // exception is a bug.
  void unhandled_exception() noexcept { std::terminate(); }
};

}  // namespace internal

/// A lazily-started coroutine usable in simulated time.
///
/// `co_await`-ing a Task starts it immediately and resumes the awaiter when
/// it finishes (possibly at a later virtual time). Root tasks are handed to
/// `Spawn()`, which detaches them onto the simulator's event queue.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase {
    T value{};

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  /// Relinquishes ownership of the coroutine frame (used by Spawn).
  Handle Release() { return std::exchange(handle_, {}); }

  // --- awaiter interface -------------------------------------------------
  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;  // start the child now
  }
  T await_resume() { return std::move(handle_.promise().value); }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  Handle Release() { return std::exchange(handle_, {}); }

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {}

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

/// Detaches `task` as a root coroutine: it starts at the current virtual
/// time and frees its own frame when it completes.
inline void Spawn(Simulator& simulator, Task<> task) {
  auto h = task.Release();
  assert(h && "cannot spawn an empty task");
  h.promise().detached = true;
  simulator.ScheduleAt(simulator.now(), h);
}

/// Awaitable that suspends the coroutine for `delta` virtual nanoseconds.
/// A zero delay is still a yield point (other ready events run first).
class Delay {
 public:
  Delay(Simulator& simulator, SimTime delta)
      : simulator_(simulator), delta_(delta) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    simulator_.ScheduleAfter(delta_, h);
  }
  void await_resume() const noexcept {}

 private:
  Simulator& simulator_;
  SimTime delta_;
};

/// Awaitable that suspends until an absolute virtual time.
inline Delay DelayUntil(Simulator& simulator, SimTime t) {
  SimTime delta = t - simulator.now();
  return Delay(simulator, delta > 0 ? delta : 0);
}

/// One-shot completion event: any number of coroutines may await it; all are
/// resumed (in await order) when `Set()` fires. Awaiting after `Set()`
/// completes immediately. Not resettable.
class SimEvent {
 public:
  explicit SimEvent(Simulator& simulator) : simulator_(simulator) {}

  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;

  bool is_set() const { return set_; }

  void Set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) simulator_.ScheduleAt(simulator_.now(), h);
    waiters_.clear();
  }

  bool await_ready() const noexcept { return set_; }
  void await_suspend(std::coroutine_handle<> h) { waiters_.push_back(h); }
  void await_resume() const noexcept {}

 private:
  Simulator& simulator_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// One-shot completion event with an optional deadline, for a single
/// waiter. `AwaitUntil(deadline)` suspends until either `Set()` fires
/// (resumes with true) or the absolute virtual deadline passes (resumes
/// with false); a deadline of 0 waits forever. The timed-out waiter's
/// frame may then be destroyed safely: a later `Set()` finds no waiter and
/// only records the flag. Backs the RPC-timeout path (rdma::PendingCall).
class DeadlineEvent {
 public:
  explicit DeadlineEvent(Simulator& simulator) : simulator_(simulator) {}

  DeadlineEvent(const DeadlineEvent&) = delete;
  DeadlineEvent& operator=(const DeadlineEvent&) = delete;

  bool is_set() const { return set_; }

  /// Re-arms the event for a new round. No waiter may be parked on it.
  void Reset() {
    assert(!waiter_ && !timer_armed_);
    set_ = false;
  }

  void Set() {
    if (set_) return;
    set_ = true;
    if (waiter_) {
      // The waiter is parked on its deadline timer; disarm it and resume
      // the waiter now instead. Cancelling here (not in await_resume) keeps
      // every armed timer matched by exactly one Cancel or one firing.
      if (timer_armed_) {
        simulator_.Cancel(timer_token_);
        timer_armed_ = false;
      }
      simulator_.ScheduleAt(simulator_.now(), std::exchange(waiter_, {}));
    }
  }

  /// Awaitable: true = Set() fired, false = deadline expired first.
  auto AwaitUntil(SimTime deadline) {
    struct Awaiter {
      DeadlineEvent& ev;
      SimTime deadline;

      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        assert(!ev.waiter_ && "DeadlineEvent supports a single waiter");
        ev.waiter_ = h;
        if (deadline > 0) {
          ev.timer_token_ = ev.simulator_.ScheduleCancellableAt(deadline, h);
          ev.timer_armed_ = true;
        }
      }
      bool await_resume() const noexcept {
        // Reached via Set() (timer already disarmed there) or via the
        // timer firing (the event was consumed by the pop — no Cancel).
        ev.waiter_ = {};
        ev.timer_armed_ = false;
        return ev.set_;
      }
    };
    return Awaiter{*this, deadline};
  }

 private:
  Simulator& simulator_;
  bool set_ = false;
  bool timer_armed_ = false;
  Simulator::CancelToken timer_token_ = 0;
  std::coroutine_handle<> waiter_;
};

}  // namespace namtree::sim

#endif  // NAMTREE_SIM_TASK_H_
