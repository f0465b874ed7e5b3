#ifndef NAMTREE_RDMA_RPC_H_
#define NAMTREE_RDMA_RPC_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/task.h"

namespace namtree::rdma {

/// A small RPC request shipped with a two-sided SEND. Index designs define
/// their own opcodes; three scalar arguments cover the common cases (key,
/// range bounds, pointers) and `payload` carries bulk arguments.
struct RpcRequest {
  /// Which registered handler serves this request (memory servers can host
  /// several indexes / services at once).
  uint16_t service = 0;
  uint16_t op = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
  std::vector<uint64_t> payload;

  /// Modeled wire size: header + scalar args + payload.
  uint32_t WireBytes() const {
    return 32 + static_cast<uint32_t>(payload.size()) * 8;
  }
};

/// RPC response carried by the reply SEND.
struct RpcResponse {
  uint16_t status = 0;  ///< StatusCode cast to int by convention.
  /// Payload words the reply is charged for but does not carry. A handler
  /// whose caller discards the rows (a count-only scan) elides them here,
  /// so the modeled reply keeps its size without building the payload.
  uint32_t elided_words = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  std::vector<uint64_t> payload;

  /// Modeled wire size: header + scalar results + payload, carried or elided.
  uint32_t WireBytes() const {
    return 24 + static_cast<uint32_t>(payload.size() + elided_words) * 8;
  }
};

/// Client-side bookkeeping for an in-flight RPC, owned by the *fabric* (a
/// table of recycled call slots) rather than the caller's frame: a caller
/// that times out frees its slot, and a handler that responds later must
/// find its own call there or nothing — never a dangling pointer, and
/// never the later call that reuses the slot. The fabric fulfils it when
/// the handler responds: `done` fires immediately and `deliver_at` is the
/// virtual time the reply SEND lands at the caller's NIC (the caller delays
/// itself until then).
struct PendingCall {
  explicit PendingCall(sim::Simulator& simulator) : done(simulator) {}
  /// The call this slot serves; 0 while the slot is free.
  uint64_t call_id = 0;
  RpcResponse response;
  SimTime deliver_at = 0;
  /// Memory server the request was delivered to. An immediate KillServer
  /// fails every pending call targeting the dead server with kUnavailable
  /// (its workers will never respond).
  uint32_t server_id = 0;
  sim::DeadlineEvent done;
};

/// An RPC delivered to a memory server's receive queue. `call_slot` names
/// the fabric's pending-call slot and `call_id` the attempt it was issued
/// for; a response whose slot no longer holds that id (the caller timed
/// out, and the slot may serve a later call) is charged and dropped.
struct IncomingRpc {
  uint32_t client_id = 0;
  uint32_t call_slot = 0;
  RpcRequest request;
  uint64_t call_id = 0;
  /// Resend-stable id: every retransmission of one logical Call carries the
  /// same rpc_id (unlike call_id, which is per-attempt). The server-side
  /// dedup layer keys on it so a handler whose reply was lost is not
  /// re-executed by the resend (handlers are NOT idempotent). 0 = no dedup
  /// (network faults off). Envelope-only: not part of WireBytes.
  uint64_t rpc_id = 0;
};

/// Shared receive queue (SRQ): the single request queue all clients of a
/// memory server feed into (paper §3.2 uses SRQs so the number of receive
/// queues does not grow with the number of clients). Worker coroutines
/// block on `Recv()`; messages are handed to waiting workers FIFO.
class Srq {
 public:
  explicit Srq(sim::Simulator& simulator) : simulator_(simulator) {}

  Srq(const Srq&) = delete;
  Srq& operator=(const Srq&) = delete;

  /// Enqueues a message. If a worker is blocked in Recv(), the message is
  /// handed to it directly (no steal window) and the worker is scheduled
  /// at the current virtual time.
  void Deliver(IncomingRpc msg) {
    total_delivered_++;
    if (!consumers_.empty()) {
      auto [handle, slot] = consumers_.front();
      consumers_.pop_front();
      *slot = std::move(msg);
      simulator_.ScheduleAt(simulator_.now(), handle);
      return;
    }
    messages_.push_back(std::move(msg));
  }

  /// Awaitable receive; resumes with the oldest queued message. Fair: a
  /// worker that suspended earlier gets the next message.
  auto Recv() {
    struct Awaiter {
      Srq& srq;
      IncomingRpc slot;

      bool await_ready() {
        // Only take a queued message directly if no worker is ahead of us.
        if (!srq.messages_.empty() && srq.consumers_.empty()) {
          slot = std::move(srq.messages_.front());
          srq.messages_.pop_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        srq.consumers_.emplace_back(h, &slot);
      }
      IncomingRpc await_resume() { return std::move(slot); }
    };
    return Awaiter{*this, {}};
  }

  size_t depth() const { return messages_.size(); }
  size_t idle_consumers() const { return consumers_.size(); }

  /// Cumulative messages delivered (for load accounting).
  uint64_t total_delivered() const { return total_delivered_; }

 private:
  sim::Simulator& simulator_;
  std::deque<IncomingRpc> messages_;
  std::deque<std::pair<std::coroutine_handle<>, IncomingRpc*>> consumers_;
  uint64_t total_delivered_ = 0;
};

}  // namespace namtree::rdma

#endif  // NAMTREE_RDMA_RPC_H_
