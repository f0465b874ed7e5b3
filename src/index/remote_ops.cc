#include "index/remote_ops.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "btree/types.h"

namespace namtree::index {

using btree::IsLocked;

// Network-fault recovery discipline (docs/fault_model.md §8): a verb that
// comes back kLost is *ambiguous* — the fabric may have executed its memory
// effect and lost only the completion. Every recovery below therefore
// either (a) re-posts a verb that is byte-idempotent (READs, WRITEs of the
// same image), or (b) resolves the ambiguity with a read-back before
// re-posting a non-idempotent atomic. Blind atomic re-posts are what the
// auditor's kUnresolvedAmbiguousRetry violation exists to catch. All
// re-posts are bounded by RetryPolicy::ForVerbs; exhaustion surfaces as
// kTimedOut so restart loops and the YCSB failure breakdown can tell a
// flaky link (kTimedOut) from a dead server (kUnavailable).

RouteResult RemoteOps::ActingPrimary(rdma::RemotePtr primary) const {
  rdma::Fabric& fabric = ctx_->fabric();
  for (uint32_t r = 0; r < fabric.replication(); ++r) {
    const rdma::RemotePtr replica = fabric.ReplicaPtr(primary, r);
    if (fabric.ServerAlive(replica.server_id())) {
      return RouteResult{Status::OK(), replica};
    }
  }
  return RouteResult{Status::Unavailable("all replicas dead"),
                     rdma::RemotePtr::Null()};
}

RouteResult RemoteOps::LockedReplica(rdma::RemotePtr ptr) const {
  auto it = ctx_->lock_routes.find(ptr.raw());
  if (it != ctx_->lock_routes.end()) {
    return RouteResult{Status::OK(), rdma::RemotePtr(it->second)};
  }
  return ActingPrimary(ptr);
}

void RemoteOps::StampLocked(uint8_t* buf, uint64_t version) {
  const uint64_t locked = btree::MakeLockedWord(version, ctx_->client_id());
  std::memcpy(buf + btree::kVersionOffset, &locked, 8);
}

sim::Task<Status> RemoteOps::ReadPageFrom(rdma::RemotePtr at, uint8_t* buf) {
  const rdma::RetryPolicy policy = VerbPolicy();
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    const SimTime t0 = TraceStart();
    const rdma::VerbCompletion done =
        co_await fabric().Read(ctx_->client_id(), at, buf, page_size());
    TraceVerbEvent(metrics::TraceVerb::kRead, at.server_id(), /*chain=*/0, t0);
    ctx_->round_trips.Inc();
    if (!alive()) co_return Status::Unavailable("client crashed");
    if (!fabric().ServerAlive(at.server_id())) {
      co_return Status::Unavailable("memory server dead");
    }
    if (done == rdma::VerbCompletion::kOk) co_return Status::OK();
    // The READ or its completion was lost. A READ has no remote effect, so
    // the re-post is sanctioned as-is.
    // namtree-lint: retry-ok(READ is idempotent)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("READ lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
}

sim::Task<Status> RemoteOps::ReadWord(rdma::RemotePtr at, uint64_t* out) {
  const rdma::RetryPolicy policy = VerbPolicy();
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    ctx_->round_trips.Inc();
    const SimTime t0 = TraceStart();
    const rdma::VerbCompletion done =
        co_await fabric().Read(ctx_->client_id(), at, out, 8);
    TraceVerbEvent(metrics::TraceVerb::kRead, at.server_id(), /*chain=*/0, t0);
    if (!alive()) co_return Status::Unavailable("client crashed");
    if (done == rdma::VerbCompletion::kOk) co_return Status::OK();
    // namtree-lint: retry-ok(READ is idempotent)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("READ lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
}

sim::Task<Status> RemoteOps::WriteWord(rdma::RemotePtr at, uint64_t value) {
  const rdma::RetryPolicy policy = VerbPolicy();
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    ctx_->round_trips.Inc();
    const SimTime t0 = TraceStart();
    const rdma::VerbCompletion done =
        co_await fabric().Write(ctx_->client_id(), at, &value, 8);
    TraceVerbEvent(metrics::TraceVerb::kWrite, at.server_id(), /*chain=*/0,
                   t0);
    if (!alive()) co_return Status::Unavailable("client crashed");
    if (done == rdma::VerbCompletion::kOk) co_return Status::OK();
    // Re-posts the same 8 bytes — byte-idempotent.
    // namtree-lint: retry-ok(WRITE of identical bytes)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("WRITE lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
}

sim::Task<Status> RemoteOps::WriteRaw(rdma::RemotePtr at, const void* src,
                                      uint32_t len) {
  const rdma::RetryPolicy policy = VerbPolicy();
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    ctx_->round_trips.Inc();
    const SimTime t0 = TraceStart();
    const rdma::VerbCompletion done =
        co_await fabric().Write(ctx_->client_id(), at, src, len);
    TraceVerbEvent(metrics::TraceVerb::kWrite, at.server_id(), /*chain=*/0,
                   t0);
    if (!alive()) co_return Status::Unavailable("client crashed");
    if (done == rdma::VerbCompletion::kOk) co_return Status::OK();
    // namtree-lint: retry-ok(WRITE of identical bytes)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("WRITE lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
}

sim::Task<Status> RemoteOps::ReadPagesBatch(
    std::span<rdma::Fabric::ChainOp> reads) {
  const rdma::RetryPolicy policy = VerbPolicy();
  // One event per batch slot, all under one chain id: the whole batch rides
  // one doorbell, so the slots share start/finish but keep per-server
  // attribution.
  const uint64_t chain = ctx_->trace().NextChainId();
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    ctx_->round_trips.Inc();
    const SimTime t0 = TraceStart();
    const rdma::VerbCompletion done =
        co_await fabric().ReadBatch(ctx_->client_id(), reads);
    if (ctx_->trace().in_span()) {
      for (const rdma::Fabric::ChainOp& op : reads) {
        TraceVerbEvent(metrics::TraceVerb::kReadBatch, op.target.server_id(),
                       chain, t0);
      }
    }
    if (!alive()) co_return Status::Unavailable("client crashed");
    if (done == rdma::VerbCompletion::kOk) co_return Status::OK();
    // A READ-only chain has no remote effect: re-post it wholesale (its
    // in-place members re-pin at their new effects).
    // namtree-lint: retry-ok(READ batch is idempotent)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("READ batch lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
}

sim::Task<Status> RemoteOps::ReadPage(rdma::RemotePtr ptr, uint8_t* buf) {
  // Bounded: each pass either returns or permanently excludes a replica
  // whose server died mid-read. namtree-lint: bounded-loop(failover)
  for (;;) {
    const RouteResult route = ActingPrimary(ptr);
    if (!route.ok()) co_return route.status;
    const Status read = co_await ReadPageFrom(route.ptr, buf);
    if (read.ok()) co_return Status::OK();
    if (!alive() || !fabric().replicated()) co_return read;
    // The acting primary died with the READ in flight: promote the next
    // live replica (ActingPrimary re-resolves past the dead server).
    if (fabric().ServerAlive(route.ptr.server_id())) co_return read;
    ctx_->restarts.Inc();
  }
}

sim::Task<PageReadResult> RemoteOps::ReadPageUnlocked(rdma::RemotePtr ptr,
                                                      uint8_t* buf) {
  const rdma::FabricConfig& cfg = fabric().config();
  sim::Simulator& simulator = fabric().simulator();
  const rdma::RetryPolicy lock_policy = rdma::RetryPolicy::ForLocks(cfg);
  const rdma::RetryPolicy steal_policy = rdma::RetryPolicy::ForSteal(cfg);
  // The exact locked word we have been watching, and since when. A change
  // of the word (new holder or new cycle) restarts both the lease window
  // and the backoff schedule.
  uint64_t watched_word = 0;
  SimTime locked_since = 0;
  uint32_t backoff_round = 0;
  // Consecutive liveness-registry probes that failed because the registry
  // host was dead; bounded like RPC retries so an unreachable registry
  // cannot wedge the waiter forever.
  uint32_t failed_probes = 0;
  // Bounded: each pass either returns, backs off (capped exponential), or
  // lease-steals from a dead holder. namtree-lint: bounded-loop(backoff)
  for (;;) {
    // Resolve the acting primary fresh each pass: the lock we watch (and
    // would steal) lives on the replica actually serving reads.
    const RouteResult route = ActingPrimary(ptr);
    if (!route.ok()) co_return PageReadResult{route.status, 0};
    const rdma::RemotePtr at = route.ptr;
    const Status read = co_await ReadPageFrom(at, buf);
    if (!read.ok()) {
      if (alive() && fabric().replicated() &&
          !fabric().ServerAlive(at.server_id())) {
        // Mid-read server death: promote and retry.
        ctx_->restarts.Inc();
        continue;
      }
      co_return PageReadResult{read, 0};
    }
    uint64_t word;
    std::memcpy(&word, buf + btree::kVersionOffset, 8);
    if (!IsLocked(word)) co_return PageReadResult{Status::OK(), word};
    ctx_->lock_waits.Inc();

    if (word != watched_word) {
      watched_word = word;
      locked_since = simulator.now();
      backoff_round = 0;
    } else if (cfg.lock_lease_ns > 0 &&
               simulator.now() - locked_since >= cfg.lock_lease_ns) {
      // Lease expired on this exact locked word: consult the liveness
      // registry. Readers steal too — otherwise a dead writer wedges every
      // optimistic reader of the page forever.
      const uint32_t holder = btree::HolderOf(word);
      ctx_->round_trips.Inc();
      const SimTime probe_t0 = TraceStart();
      const rdma::EpochReadResult probe =
          co_await fabric().ReadClientEpoch(ctx_->client_id(), holder);
      // The holder's registry record lives on server holder % N (its home;
      // failover may promote a replica — home is the attribution).
      TraceVerbEvent(metrics::TraceVerb::kRead,
                     holder % fabric().num_memory_servers(), /*chain=*/0,
                     probe_t0);
      if (!alive()) {
        co_return PageReadResult{Status::Unavailable("client crashed"), 0};
      }
      if (!probe.status.ok()) {
        // The epoch-hosting server is dead. Bounded retry on the steal
        // policy (the host's replica group may recover a route), then give
        // up cleanly instead of spinning forever on the orphaned lock.
        failed_probes++;
        ctx_->steal_retry_attempts.Inc();
        if (steal_policy.Exhausted(failed_probes)) {
          ctx_->steal_retry_exhausted.Inc();
          co_return PageReadResult{
              Status::Unavailable("liveness registry unreachable"), 0};
        }
      } else {
        failed_probes = 0;
        if (!probe.alive) {
          // CAS the orphan's locked word back to unlocked, one full
          // version cycle ahead so the orphan's partial image never
          // revalidates.
          ctx_->round_trips.Inc();
          const SimTime cas_t0 = TraceStart();
          const rdma::AtomicResult cas = co_await fabric().CompareAndSwap(
              ctx_->client_id(), at.Plus(btree::kVersionOffset), word,
              btree::StolenUnlockWord(word));
          TraceVerbEvent(metrics::TraceVerb::kCas, at.server_id(),
                         /*chain=*/0, cas_t0);
          if (!alive()) {
            co_return PageReadResult{Status::Unavailable("client crashed"),
                                     0};
          }
          // A lost steal CAS needs no dedicated resolution: the immediate
          // re-read below observes whichever outcome the network actually
          // delivered, and the CAS never re-posts.
          if (cas.ok() && cas.value == word) ctx_->lock_steals.Inc();
          // Re-read immediately (we or a faster waiter just freed it).
          watched_word = 0;
          backoff_round = 0;
          continue;
        }
        locked_since = simulator.now();  // holder is alive: renew the lease
      }
    }

    // Capped exponential backoff with per-client jitter: the delay doubles
    // per consecutive observation of the same locked word and is drawn
    // uniformly from [base/2, base) — RetryPolicy::BackoffFor is the
    // extracted historical formula (same single RNG draw per round).
    const SimTime delay = lock_policy.BackoffFor(backoff_round, ctx_->rng());
    ctx_->backoff_rounds.Inc();
    ctx_->lock_retry_attempts.Inc();
    backoff_round++;
    co_await sim::Delay(simulator, delay);
  }
}

sim::Task<Status> RemoteOps::TryLockPage(rdma::RemotePtr ptr,
                                         uint64_t version) {
  const RouteResult route = ActingPrimary(ptr);
  if (!route.ok()) co_return route.status;
  const uint64_t locked = btree::MakeLockedWord(version, ctx_->client_id());
  const rdma::RetryPolicy policy = VerbPolicy();
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    ctx_->round_trips.Inc();
    const SimTime t0 = TraceStart();
    const rdma::AtomicResult cas = co_await fabric().CompareAndSwap(
        ctx_->client_id(), route.ptr.Plus(btree::kVersionOffset), version,
        locked);
    TraceVerbEvent(metrics::TraceVerb::kCas, route.ptr.server_id(),
                   /*chain=*/0, t0);
    if (!alive()) co_return Status::Unavailable("client crashed");
    if (!fabric().ServerAlive(route.ptr.server_id())) {
      // The acting primary died mid-CAS. Whether the swap landed or not,
      // that replica is gone — restart against the promoted one.
      co_return fabric().replicated()
          ? Status::Aborted("acting primary died during lock CAS")
          : Status::Unavailable("memory server dead");
    }
    if (cas.ok()) {
      if (cas.value != version) co_return Status::Aborted("lock CAS lost");
      break;  // acquired
    }
    // Ambiguous completion: the CAS — or only its ACK — was lost. Resolve
    // by reading the word back; the holder stamp in our locked word is the
    // witness. Blindly re-CASing here is exactly what the auditor's
    // UnresolvedAmbiguousRetry violation flags: a landed swap would make
    // the retry spin against our own lock.
    uint64_t word = 0;
    const Status read_back =
        co_await ReadWord(route.ptr.Plus(btree::kVersionOffset), &word);
    if (!read_back.ok()) co_return read_back;
    if (word == locked) break;  // the swap landed; only the ACK was lost
    if (word != version) co_return Status::Aborted("lock CAS lost");
    // The word is untouched: the verb itself was dropped. Re-posting is
    // sanctioned — the read-back proved there is no effect to duplicate.
    // namtree-lint: retry-ok(read-back proved the CAS had no effect)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("lock CAS lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
  if (fabric().replicated()) {
    // Remember which replica actually holds the lock so the release lands
    // there even if further failovers change the acting primary.
    ctx_->lock_routes[ptr.raw()] = route.ptr.raw();
  }
  co_return Status::OK();
}

sim::Task<PageReadResult> RemoteOps::LockPage(rdma::RemotePtr ptr,
                                              uint8_t* buf) {
  // Bounded: ReadPageUnlocked backs off / steals, and every failure mode
  // other than a lost CAS race propagates. namtree-lint: bounded-loop(cas)
  for (;;) {
    PageReadResult read = co_await ReadPageUnlocked(ptr, buf);
    if (!read.ok()) co_return read;
    const Status lock = co_await TryLockPage(ptr, read.version);
    if (lock.ok()) {
      // Keep the local image consistent with the now-locked remote word so
      // a later WriteUnlockPage does not transiently clear the lock bit.
      StampLocked(buf, read.version);
      co_return read;
    }
    if (!lock.IsAborted()) co_return PageReadResult{lock, 0};
    ctx_->restarts.Inc();
  }
}

sim::Task<Status> RemoteOps::WriteUnlockPage(rdma::RemotePtr ptr,
                                             const uint8_t* buf,
                                             rdma::RemotePtr sibling,
                                             const uint8_t* sibling_buf) {
  uint64_t word;
  std::memcpy(&word, buf + btree::kVersionOffset, 8);
  assert(IsLocked(word) && "image must carry the lock bit until the release");
  const RouteResult route = LockedReplica(ptr);
  if (!route.ok()) {
    ctx_->lock_routes.erase(ptr.raw());
    co_return route.status;
  }
  const rdma::RemotePtr locked_at = route.ptr;
  const uint32_t locked_server = locked_at.server_id();
  if (!fabric().ServerAlive(locked_server)) {
    // The lock evaporated with its server before we published anything:
    // retry the whole op against the promoted replica.
    ctx_->lock_routes.erase(ptr.raw());
    co_return fabric().replicated()
        ? Status::Aborted("locked primary died before publication")
        : Status::Unavailable("memory server dead");
  }
  const uint64_t unlocked = btree::VersionOf(word) + 2;
  // Backup images carry the clean post-release word: a locked backup word
  // would wedge promotion forever (the holder is alive, so no waiter may
  // steal it), and version-equality across replicas must imply
  // content-equality.
  std::vector<uint8_t> backup_img;
  if (fabric().replicated()) {
    backup_img.assign(buf, buf + page_size());
    std::memcpy(backup_img.data() + btree::kVersionOffset, &unlocked, 8);
  }
  const rdma::RetryPolicy policy = VerbPolicy();

  // Doorbell-batched {sibling WRITE + its backups, page WRITE, page backup
  // WRITEs, unlock WRITE}: one doorbell, one completion. The unlock WRITE
  // installs the next version with the holder bits cleared. Sibling
  // backups ride unfenced: the sibling is unreachable until the page WRITE
  // publishes the link, so an orphaned sibling replica (its chain cut by a
  // mid-chain server death) is harmless garbage. Page backups are fenced
  // on the locked primary: once it dies a reader may already have promoted
  // a backup, so a late backup WRITE must not clobber the promoted copy.
  ctx_->round_trips.Inc();
  std::vector<rdma::Fabric::ChainOp>& chain = ctx_->chain_ops;
  chain.clear();
  if (!sibling.is_null()) {
    chain.push_back(
        rdma::Fabric::ChainOp::Write(sibling, sibling_buf, page_size()));
    for (uint32_t r = 1; fabric().replicated() && r < fabric().replication();
         ++r) {
      const rdma::RemotePtr rep = fabric().ReplicaPtr(sibling, r);
      if (!fabric().ServerAlive(rep.server_id())) continue;
      chain.push_back(
          rdma::Fabric::ChainOp::Write(rep, sibling_buf, page_size()));
    }
  }
  chain.push_back(rdma::Fabric::ChainOp::Write(locked_at, buf, page_size()));
  for (uint32_t r = 0; fabric().replicated() && r < fabric().replication();
       ++r) {
    const rdma::RemotePtr rep = fabric().ReplicaPtr(ptr, r);
    if (rep == locked_at || !fabric().ServerAlive(rep.server_id())) continue;
    rdma::Fabric::ChainOp op =
        rdma::Fabric::ChainOp::Write(rep, backup_img.data(), page_size());
    op.fence_server = static_cast<int32_t>(locked_server);
    chain.push_back(op);
  }
  chain.push_back(rdma::Fabric::ChainOp::Write(
      locked_at.Plus(btree::kVersionOffset), &unlocked, 8));
  const uint64_t chain_id = ctx_->trace().NextChainId();
  std::vector<uint32_t> chain_servers;
  if (ctx_->trace().in_span()) {
    chain_servers.reserve(chain.size());
    for (const rdma::Fabric::ChainOp& op : chain) {
      chain_servers.push_back(op.target.server_id());
    }
  }
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    const SimTime chain_t0 = TraceStart();
    const rdma::VerbCompletion done =
        co_await fabric().PostChain(ctx_->client_id(), chain);
    for (const uint32_t server : chain_servers) {
      TraceVerbEvent(metrics::TraceVerb::kWrite, server, chain_id, chain_t0);
    }
    if (!alive()) {
      ctx_->lock_routes.erase(ptr.raw());
      co_return Status::Unavailable("client crashed");
    }
    if (!fabric().ServerAlive(locked_server)) {
      ctx_->lock_routes.erase(ptr.raw());
      co_return fabric().replicated()
          ? Status::Aborted("locked primary died during publication")
          : Status::Unavailable("memory server dead");
    }
    if (done == rdma::VerbCompletion::kOk) break;
    // Part of the chain — or only completions — was lost. The page stays
    // ours until the unlock WRITE is visible, so read the version word
    // back to decide.
    uint64_t now_word = 0;
    const Status read_back = co_await ReadWord(
        locked_at.Plus(btree::kVersionOffset), &now_word);
    if (!read_back.ok()) {
      ctx_->lock_routes.erase(ptr.raw());
      co_return read_back;
    }
    if (now_word != word) break;  // the release landed; only ACKs were lost
    // Still locked by us: the unlock WRITE never executed, so nobody can
    // have modified the page — every member re-posts the same bytes.
    // namtree-lint: retry-ok(read-back proved the release missing; chain is byte-idempotent)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->lock_routes.erase(ptr.raw());
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("publication chain lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    ctx_->round_trips.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
  ctx_->lock_routes.erase(ptr.raw());
  co_return Status::OK();
}

sim::Task<Status> RemoteOps::UnlockPage(rdma::RemotePtr ptr) {
  const RouteResult route = LockedReplica(ptr);
  ctx_->lock_routes.erase(ptr.raw());
  if (!route.ok()) co_return route.status;
  if (fabric().replicated() &&
      !fabric().ServerAlive(route.ptr.server_id())) {
    // The lock evaporated with its server; the promoted replica carries a
    // clean unlocked word (backups never store locked words).
    co_return Status::OK();
  }
  const rdma::RetryPolicy policy = VerbPolicy();
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    ctx_->round_trips.Inc();
    const SimTime t0 = TraceStart();
    const rdma::AtomicResult faa = co_await fabric().FetchAndAdd(
        ctx_->client_id(), route.ptr.Plus(btree::kVersionOffset), 1);
    TraceVerbEvent(metrics::TraceVerb::kFaa, route.ptr.server_id(),
                   /*chain=*/0, t0);
    if (!alive()) co_return Status::Unavailable("client crashed");
    if (!fabric().ServerAlive(route.ptr.server_id())) {
      co_return fabric().replicated()
          ? Status::OK()  // lock and server vanished together
          : Status::Unavailable("memory server dead");
    }
    if (faa.ok()) co_return Status::OK();
    // Ambiguous release: read the word back. While it is still locked with
    // our holder stamp the FAA provably never executed; anything else
    // means the release is visible (or a lease steal intervened — either
    // way a second +1 would corrupt the word).
    uint64_t now_word = 0;
    const Status read_back = co_await ReadWord(
        route.ptr.Plus(btree::kVersionOffset), &now_word);
    if (!read_back.ok()) co_return read_back;
    if (!(IsLocked(now_word) &&
          btree::HolderOf(now_word) == ctx_->client_id())) {
      co_return Status::OK();
    }
    // namtree-lint: retry-ok(read-back proved the FAA had no effect)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("unlock FAA lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
}

sim::Task<Status> RemoteOps::WriteFreshPage(rdma::RemotePtr ptr,
                                            const uint8_t* buf) {
  const rdma::RetryPolicy policy = VerbPolicy();
  if (!fabric().replicated()) {
    // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
    for (uint32_t attempt = 0;; ++attempt) {
      ctx_->round_trips.Inc();
      const SimTime t0 = TraceStart();
      const rdma::VerbCompletion done = co_await fabric().Write(
          ctx_->client_id(), ptr, buf, page_size());
      TraceVerbEvent(metrics::TraceVerb::kWrite, ptr.server_id(), /*chain=*/0,
                     t0);
      if (!alive()) co_return Status::Unavailable("client crashed");
      if (!fabric().ServerAlive(ptr.server_id())) {
        co_return Status::Unavailable("memory server dead");
      }
      if (done == rdma::VerbCompletion::kOk) co_return Status::OK();
      // The page is unreachable until a later publication links it.
      // namtree-lint: retry-ok(unlinked page, byte-idempotent)
      if (policy.Exhausted(attempt + 1)) {
        ctx_->verb_retry_exhausted.Inc();
        co_return Status::TimedOut("fresh-page WRITE lost in the network");
      }
      ctx_->verb_retry_attempts.Inc();
      co_await sim::Delay(fabric().simulator(),
                          policy.BackoffFor(attempt, ctx_->rng()));
    }
  }
  // Primary + all live backups, unfenced: the page is unreachable until a
  // later (fenced) publication links it, so partial replication after a
  // mid-chain death is harmless.
  ctx_->round_trips.Inc();
  std::vector<rdma::Fabric::ChainOp>& chain = ctx_->chain_ops;
  chain.clear();
  for (uint32_t r = 0; r < fabric().replication(); ++r) {
    const rdma::RemotePtr rep = fabric().ReplicaPtr(ptr, r);
    if (!fabric().ServerAlive(rep.server_id())) continue;
    chain.push_back(rdma::Fabric::ChainOp::Write(rep, buf, page_size()));
  }
  if (chain.empty()) co_return Status::Unavailable("all replicas dead");
  const uint64_t chain_id = ctx_->trace().NextChainId();
  std::vector<uint32_t> chain_servers;
  if (ctx_->trace().in_span()) {
    chain_servers.reserve(chain.size());
    for (const rdma::Fabric::ChainOp& op : chain) {
      chain_servers.push_back(op.target.server_id());
    }
  }
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    const SimTime chain_t0 = TraceStart();
    const rdma::VerbCompletion done =
        co_await fabric().PostChain(ctx_->client_id(), chain);
    for (const uint32_t server : chain_servers) {
      TraceVerbEvent(metrics::TraceVerb::kWrite, server, chain_id, chain_t0);
    }
    if (!alive()) co_return Status::Unavailable("client crashed");
    if (done == rdma::VerbCompletion::kOk) co_return Status::OK();
    // namtree-lint: retry-ok(unlinked pages, byte-idempotent)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return Status::TimedOut("fresh-page chain lost in the network");
    }
    ctx_->verb_retry_attempts.Inc();
    ctx_->round_trips.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
}

sim::Task<AllocResult> RemoteOps::AllocPage(uint32_t server) {
  const uint32_t n = fabric().num_memory_servers();
  // Each pass either returns or finds its target dead, so at most one pass
  // per server.
  for (uint32_t pass = 0; pass < n; ++pass) {
    uint32_t target = server;
    if (!fabric().ServerAlive(target)) {
      if (!fabric().replicated()) break;
      // A dead home server's allocations move to the next live server; the
      // new page's replica group is the formula group of its actual host.
      uint32_t i = 1;
      while (i < n && !fabric().ServerAlive((server + i) % n)) ++i;
      if (i == n) {
        co_return AllocResult{Status::Unavailable("all memory servers dead"),
                              rdma::RemotePtr::Null()};
      }
      target = (server + i) % n;
    }
    const AllocResult alloc = co_await AllocPageOn(target);
    // A target that died with the FAA in flight never moved its cursor;
    // under replication the next pass skips it like a server that was
    // already dead.
    if (alloc.ok() || !alive() || fabric().ServerAlive(target)) {
      co_return alloc;
    }
  }
  co_return AllocResult{Status::Unavailable("memory server dead"),
                        rdma::RemotePtr::Null()};
}

sim::Task<AllocResult> RemoteOps::AllocPageOn(uint32_t target) {
  const rdma::RemotePtr cursor =
      rdma::RemotePtr::Make(target, rdma::MemoryRegion::kAllocCursorOffset);
  const rdma::RetryPolicy policy = VerbPolicy();
  // Ambiguity bookkeeping: a lost allocation FAA leaves no witness in the
  // allocated slot (unlike lock words, cursor slots carry no holder
  // stamp), so pre-read the cursor while faults can fire. An unchanged
  // cursor later proves a lost FAA never executed. The extra READ is
  // gated on fault enablement — knobs-off runs stay verb-identical.
  uint64_t cursor_before = 0;
  bool have_cursor_before = false;
  if (fabric().NetFaultsLive()) {
    const Status pre = co_await ReadWord(cursor, &cursor_before);
    if (!pre.ok()) co_return AllocResult{pre, rdma::RemotePtr::Null()};
    have_cursor_before = true;
  }
  uint64_t offset = 0;
  // Bounded by the verb retry budget. namtree-lint: bounded-loop(retry)
  for (uint32_t attempt = 0;; ++attempt) {
    ctx_->round_trips.Inc();
    const SimTime t0 = TraceStart();
    const rdma::AtomicResult faa = co_await fabric().FetchAndAdd(
        ctx_->client_id(), cursor, page_size());
    TraceVerbEvent(metrics::TraceVerb::kFaa, target, /*chain=*/0, t0);
    // A dead client's FAA is dropped and returns 0, which would alias the
    // region header — treat it as an allocation failure.
    if (!alive()) {
      co_return AllocResult{Status::Unavailable("client crashed"),
                            rdma::RemotePtr::Null()};
    }
    if (!fabric().ServerAlive(target)) {  // died mid-FAA: cursor never moved
      co_return AllocResult{Status::Unavailable("memory server dead"),
                            rdma::RemotePtr::Null()};
    }
    if (faa.ok()) {
      offset = faa.value;
      break;
    }
    // Ambiguous allocation: read the cursor back. Unchanged = our FAA
    // never executed, plain re-post. Moved = ours may be among the movers
    // but is indistinguishable from concurrent allocators', so re-draw
    // conservatively: at worst one page-size hole leaks in the stripe
    // (client.alloc_leaks counts the events).
    uint64_t cursor_now = 0;
    const Status read_back = co_await ReadWord(cursor, &cursor_now);
    if (!read_back.ok()) {
      co_return AllocResult{read_back, rdma::RemotePtr::Null()};
    }
    if (have_cursor_before && cursor_now != cursor_before) {
      ctx_->alloc_leaks.Inc();
    }
    cursor_before = cursor_now;
    have_cursor_before = true;
    // namtree-lint: retry-ok(read-back resolved the lost FAA; moved cursors leak, never alias)
    if (policy.Exhausted(attempt + 1)) {
      ctx_->verb_retry_exhausted.Inc();
      co_return AllocResult{Status::TimedOut("alloc FAA lost in the network"),
                            rdma::RemotePtr::Null()};
    }
    ctx_->verb_retry_attempts.Inc();
    co_await sim::Delay(fabric().simulator(),
                        policy.BackoffFor(attempt, ctx_->rng()));
  }
  if (offset + page_size() > fabric().AllocLimit(target)) {
    co_return AllocResult{Status::OutOfMemory("region exhausted"),
                          rdma::RemotePtr::Null()};
  }
  co_return AllocResult{Status::OK(), rdma::RemotePtr::Make(target, offset)};
}

sim::Task<AllocResult> RemoteOps::AllocPageRoundRobin() {
  const uint32_t servers = fabric().num_memory_servers();
  // Skip dead servers (bounded by the server count); exhaustion of the
  // chosen live server still surfaces as OutOfMemory, as before.
  for (uint32_t i = 0; i < servers; ++i) {
    const uint32_t server = ctx_->alloc_rr % servers;
    ctx_->alloc_rr++;
    if (!fabric().ServerAlive(server)) continue;
    const AllocResult alloc = co_await AllocPage(server);
    // A drawn server that died mid-FAA is skipped like a dead one.
    if (alloc.ok() || !alive() || fabric().ServerAlive(server)) {
      co_return alloc;
    }
  }
  co_return AllocResult{Status::Unavailable("all memory servers dead"),
                        rdma::RemotePtr::Null()};
}

}  // namespace namtree::index
