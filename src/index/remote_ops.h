#ifndef NAMTREE_INDEX_REMOTE_OPS_H_
#define NAMTREE_INDEX_REMOTE_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "btree/page.h"
#include "common/status.h"
#include "nam/cluster.h"
#include "rdma/fabric.h"
#include "rdma/memory_region.h"
#include "rdma/remote_ptr.h"
#include "sim/task.h"

namespace namtree::index {

/// Outcome of a versioned page read: OK with the observed version word, or
/// the error that ended the protocol (kUnavailable once this client is
/// dead). Default-constructible on purpose — coroutine Task payloads must
/// be (Result<T> is not).
struct PageReadResult {
  Status status;
  uint64_t version = 0;

  bool ok() const { return status.ok(); }
};

/// Outcome of a remote page allocation: OK with the new page's (primary)
/// address, kOutOfMemory when the target stripe is exhausted, kUnavailable
/// when the client is dead or no live server can serve the allocation.
/// Replaces the old null-pointer convention so callers can tell a full
/// region from a dead one (the YCSB degraded-mode accounting depends on
/// the distinction).
struct AllocResult {
  Status status;
  rdma::RemotePtr ptr;

  bool ok() const { return status.ok(); }
};

/// Which replica of a page currently acts as its primary (failover
/// routing): rank 0 while the home server lives, the next live rank after
/// its death. kUnavailable when the whole replica group is dead.
struct RouteResult {
  Status status;
  rdma::RemotePtr ptr;

  bool ok() const { return status.ok(); }
};

/// The one-sided page protocol of the fine-grained design (paper Listing 4):
/// remote reads with a remote spinlock on the version word, lock upgrade via
/// RDMA CAS, unlock-with-writeback via RDMA WRITE + FETCH_AND_ADD, and
/// remote page allocation via FETCH_AND_ADD on the region's allocation
/// cursor (RDMA_ALLOC).
///
/// Network-fault behavior: a verb that the flaky fabric reports kLost is
/// ambiguous — its effect may have landed with only the completion gone.
/// Idempotent verbs (READs, WRITEs of the same image) re-post under the
/// bounded RetryPolicy::ForVerbs budget; non-idempotent atomics resolve
/// the ambiguity first with a read-back (lock CAS: the holder-stamped
/// word; unlock FAA / publication chains: the version word; allocation
/// FAA: the cursor) and only re-post when the read-back proved no effect.
/// Budget exhaustion surfaces Status::TimedOut — distinct from the
/// kUnavailable of a dead server (docs/fault_model.md §8).
///
/// Crash-fault behavior: every op surfaces Status::Unavailable as soon as
/// the owning client is dead (its verbs are dropped by the fabric).
/// Spinning on a locked word uses capped exponential backoff with
/// per-client jitter, and — when FabricConfig::lock_lease_ns is set — a
/// waiter that has watched the same locked word past the lease consults
/// the fabric's liveness registry and CAS-steals the lock from a dead
/// holder (docs/fault_model.md).
///
/// Memory-server fault behavior: all page addresses handed in are rank-0
/// *primary* addresses. Under replication (FabricConfig::
/// replication_factor > 1) every access resolves the page's acting primary
/// — the first live replica in rank order — so a reader that hits a dead
/// server deterministically promotes the next replica; disciplined writers
/// publish primary + backups in one doorbell chain, with backup WRITEs
/// fenced on the locked primary so a late backup never clobbers a promoted
/// replica. At R=1 a dead server simply surfaces kUnavailable. A
/// publication whose locked primary died mid-chain returns kAborted (only
/// at R>1): the op retries against the promoted replica.
///
/// A RemoteOps instance is a thin, per-client facade over the fabric; it
/// charges every verb to `ctx` for round-trip accounting.
class RemoteOps {
 public:
  explicit RemoteOps(nam::ClientContext& ctx) : ctx_(&ctx) {}

  nam::ClientContext& ctx() { return *ctx_; }
  rdma::Fabric& fabric() { return ctx_->fabric(); }
  uint32_t page_size() const { return ctx_->page_size(); }

  /// True while the owning client has not been crash-injected away.
  bool alive() const { return ctx_->fabric().ClientAlive(ctx_->client_id()); }

  /// First live replica of the page at `primary`, in rank order (rank 0 =
  /// `primary` itself — the identity at R=1 and on the healthy path).
  /// kUnavailable when every replica's server is dead.
  RouteResult ActingPrimary(rdma::RemotePtr primary) const;

  /// Stamps the local image's version word with the locked word this client
  /// installs on acquire (lock bit + holder id). Call after a successful
  /// TryLockPage so a later WriteUnlockPage does not transiently clear the
  /// lock bit.
  void StampLocked(uint8_t* buf, uint64_t version);

  /// remote_read: one RDMA READ of a full page into `buf`, promoting to
  /// the next live replica when the acting primary('s server) dies.
  /// Unavailable when this client is dead or the whole replica group is
  /// gone (buf is then unspecified).
  sim::Task<Status> ReadPage(rdma::RemotePtr ptr, uint8_t* buf);

  /// remote_readLockOrRestart + remote_awaitNodeUnlocked: reads the page,
  /// re-reading (remote spinlock with backoff, lease-based steal) while the
  /// lock bit is set. OK carries the raw version word of the returned
  /// consistent image.
  sim::Task<PageReadResult> ReadPageUnlocked(rdma::RemotePtr ptr,
                                             uint8_t* buf);

  /// remote_upgradeToWriteLockOrRestart: RDMA CAS installing the locked
  /// word (holder-stamped) on the page's acting primary. OK = lock
  /// acquired (the acting route is recorded in ctx().lock_routes under
  /// replication); Aborted = CAS lost the race or the acting primary died
  /// mid-CAS; Unavailable = this client is dead or no replica is left.
  sim::Task<Status> TryLockPage(rdma::RemotePtr ptr, uint64_t version);

  /// Spin variant: read-unlocked + CAS until the lock is held or the
  /// protocol fails. On OK, `buf` holds the locked image (StampLocked
  /// applied) and `version` is the pre-lock version word.
  sim::Task<PageReadResult> LockPage(rdma::RemotePtr ptr, uint8_t* buf);

  /// remote_writeUnlock: installs the modified local image (which must
  /// still carry the lock bit) and releases the lock, bumping the version,
  /// as one doorbell-batched {page WRITE, unlock WRITE} chain — one
  /// doorbell, one completion. A B-link split passes its freshly written
  /// right page as `sibling`: the chain then starts with the sibling
  /// WRITE, and since members take effect in posting order a reader can
  /// never follow the published sibling pointer in `buf` to a
  /// not-yet-written page. Under replication the chain grows backup WRITEs
  /// (sibling backups unfenced — an orphaned sibling replica is
  /// unreachable garbage; page backups carry the clean unlocked word and
  /// are fenced on the locked primary); a primary that died
  /// mid-publication surfaces kAborted so the op retries against the
  /// promoted replica.
  sim::Task<Status> WriteUnlockPage(
      rdma::RemotePtr ptr, const uint8_t* buf,
      rdma::RemotePtr sibling = rdma::RemotePtr::Null(),
      const uint8_t* sibling_buf = nullptr);

  /// Releases a lock without content changes (FAA only). A lock whose
  /// holding server died has evaporated with the server: OK at R>1.
  sim::Task<Status> UnlockPage(rdma::RemotePtr ptr);

  /// Publishes a freshly initialised, unlocked page image (grow-root
  /// images, GC absorber pages, rebuilt head nodes) to the primary and —
  /// under replication — all live backups, unfenced (the page is
  /// unreachable until a later publication links it).
  sim::Task<Status> WriteFreshPage(rdma::RemotePtr ptr, const uint8_t* buf);

  /// RDMA_ALLOC on a specific server. Under replication a dead home
  /// server's allocations move to the next live server, whether it died
  /// before the allocation FAA or with the FAA in flight; at R=1 its death
  /// surfaces kUnavailable. The stripe bound surfaces kOutOfMemory.
  sim::Task<AllocResult> AllocPage(uint32_t server);

  /// RDMA_ALLOC scattering allocations over all *live* memory servers
  /// round-robin (keeps the fine-grained distribution property under
  /// splits). A drawn server that dies mid-FAA is skipped like one that
  /// was dead at the draw, at any replication factor.
  sim::Task<AllocResult> AllocPageRoundRobin();

  // ---- Counted raw-verb helpers -------------------------------------------
  // The round-trip toll for client-visible verbs is paid here (or in
  // nam::ClientContext::Call for RPCs), never by hand at call sites, so
  // batched paths cannot miscount.

  /// One counted 8-byte READ of a metadata word (catalog slots). No
  /// failover — region headers are unreplicated; the caller checks the
  /// host's liveness. Unavailable = this client died mid-read.
  sim::Task<Status> ReadWord(rdma::RemotePtr at, uint64_t* out);

  /// One counted 8-byte WRITE of a metadata word (catalog publication).
  /// Unavailable = this client died mid-write (the word may or may not
  /// have landed, exactly like any dropped verb).
  sim::Task<Status> WriteWord(rdma::RemotePtr at, uint64_t value);

  /// One counted WRITE of `len` raw bytes (fresh overflow buckets and
  /// other unversioned payloads outside the page protocol). Unavailable =
  /// this client died mid-write.
  sim::Task<Status> WriteRaw(rdma::RemotePtr at, const void* src,
                             uint32_t len);

  /// One counted doorbell-batched READ-only chain (head-node prefetch,
  /// speculative path prefetch) over `reads` (ChainOp::Read members, which
  /// may carry in-place images): all ride one doorbell — one round trip
  /// regardless of the batch size. Buffers (or images) of members whose
  /// target server died mid-batch are unspecified; the caller re-checks
  /// `alive()` and per-slot `ServerAlive` like any batch consumer, and
  /// releases the images on every path (Fabric::ReleaseImages).
  sim::Task<Status> ReadPagesBatch(std::span<rdma::Fabric::ChainOp> reads);

 private:
  /// The lost-verb retry budget for this client's loops: ForVerbs on the
  /// static config, widened to the full budget when only runtime fault
  /// state (PartitionLink) makes the fabric lossy — the config predicate
  /// cannot see severed links, and a partition may heal mid-retry. Knobs
  /// off and no partitions: max_attempts stays 1, bit-identical.
  rdma::RetryPolicy VerbPolicy() const {
    rdma::RetryPolicy p =
        rdma::RetryPolicy::ForVerbs(ctx_->fabric().config());
    if (p.max_attempts == 1 && ctx_->fabric().NetFaultsLive()) {
      p.max_attempts = rdma::RetryPolicy::kNetVerbAttempts;
    }
    return p;
  }

  /// One full-page READ from exactly `at` (no failover), with liveness
  /// checks. Unavailable covers both a dead client and `at`'s server dying
  /// mid-read — ReadPage/ReadPageUnlocked disambiguate via ServerAlive.
  sim::Task<Status> ReadPageFrom(rdma::RemotePtr at, uint8_t* buf);

  /// One allocation FAA on `target`'s cursor, resolving a lost completion
  /// by reading the cursor back. kUnavailable when `target` died mid-FAA.
  sim::Task<AllocResult> AllocPageOn(uint32_t target);

  // ---- Verb-event tracing --------------------------------------------------
  // Every counted verb above records a metrics::TraceEvent into the owning
  // client's OpTrace when a span is open (ClientContext::trace). TraceStart
  // samples virtual time only inside an open span, so with tracing off (the
  // default) the helpers are a branch and nothing else.

  /// Virtual-time stamp taken just before posting a verb; 0 when no span is
  /// open (the matching TraceVerbEvent is then dropped by the ring).
  SimTime TraceStart() const {
    return ctx_->trace().in_span() ? ctx_->fabric().simulator().now() : 0;
  }

  /// Records the completed verb `[t0, now]` against `server`; `chain` > 0
  /// groups the members of one doorbell-batched chain.
  void TraceVerbEvent(metrics::TraceVerb verb, uint32_t server, uint64_t chain,
                      SimTime t0) {
    ctx_->trace().Event(verb, server, chain, t0);
  }

  /// The replica this client locked for primary address `ptr`: the
  /// recorded lock route when one exists, else the current acting primary.
  RouteResult LockedReplica(rdma::RemotePtr ptr) const;

  nam::ClientContext* ctx_;
};

}  // namespace namtree::index

#endif  // NAMTREE_INDEX_REMOTE_OPS_H_
