#ifndef NAMTREE_RDMA_AUDIT_H_
#define NAMTREE_RDMA_AUDIT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "rdma/remote_ptr.h"

namespace namtree::rdma {

/// Protocol violations the auditor can flag. The one-sided page protocol
/// (paper Listing 4) puts *all* correctness responsibility on the clients:
/// nothing on the memory-server side stops a buggy client from publishing a
/// torn page or releasing a lock it never took. The auditor polices exactly
/// that discipline from inside the fabric, where every verb's memory effect
/// is visible.
enum class ViolationKind {
  /// A WRITE covered a tracked version word whose lock the writer does not
  /// hold. On real hardware this publishes a potentially torn page.
  kWriteWithoutLock,
  /// A lock release (FETCH_AND_ADD, or the word-sized unlock WRITE at the
  /// tail of a verb chain) on a version word whose lock bit is clear
  /// (double unlock, or unlock of a never-locked page).
  kUnlockWithoutLock,
  /// A lock release (FAA or chained unlock WRITE) of a lock held by a
  /// *different* client.
  kUnlockByNonHolder,
  /// A verb moved a version word's version component backwards. Readers
  /// using version validation would wrongly conclude nothing changed.
  kVersionRegression,
  /// A READ overlapped an in-flight unprotected WRITE to the same bytes.
  /// With the lock discipline intact this cannot happen (the lock bit makes
  /// readers discard and retry); it is the reader-side symptom of a
  /// write-without-lock.
  kTornRead,
  /// A CAS cleared a locked word held by a *live* client other than the
  /// CASer. Stealing is sanctioned only against a crashed holder (the
  /// lease/steal recovery of docs/fault_model.md); stealing from a live
  /// holder races its write-back and can publish a torn page.
  kLockStealFromLiveHolder,
  /// Two verbs touched overlapping bytes of a tracked page with neither
  /// ordered before the other by happens-before (lock hand-offs, version
  /// validation, chain order, RPC pairs, program order) nor arbitrated by
  /// the version protocol itself. The finding's `detail` carries both
  /// verbs' records (client, op, chain id, page, time). See
  /// docs/static_analysis.md §Race detection.
  kRemoteRace,
  /// A client re-issued a lock-acquire CAS while it already held the lock
  /// on that word: the signature of a raw, un-resolved retry of a
  /// non-idempotent verb after an ambiguous (lost) completion. The
  /// sanctioned recovery is a read-back of the holder-stamped word
  /// (docs/fault_model.md §8) — blind re-CAS either deadlocks on its own
  /// lock or, after an intervening release, double-acquires.
  kUnresolvedAmbiguousRetry,
  /// An in-place READ image (head-node prefetch, Fabric::ReleaseImages)
  /// served bytes other than the ones its READ observed: the target page
  /// changed while the image was pinned and nothing copied it out first.
  /// Some writer mutated region memory without going through the fabric's
  /// copy-out hook, so the consumer read bytes of a later instant.
  kUnhookedWrite,
};

/// Human-readable name for `kind` ("WriteWithoutLock", ...).
const char* ViolationKindName(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  /// Offending client (for kTornRead: the reader; for kRemoteRace: the
  /// later of the two racing verbs).
  uint32_t client = 0;
  /// The version word involved (for kTornRead: the read's target).
  RemotePtr target;
  /// Kind-specific: the word value observed before the verb.
  uint64_t observed = 0;
  /// Kind-specific: the value the verb tried to install (or the FAA delta).
  uint64_t attempted = 0;
  /// Virtual time of the offending memory effect.
  SimTime time = 0;
  /// Kind-specific free-form context (for kRemoteRace: both verb records).
  std::string detail;
  /// Occurrence count: repeats of the same (kind, target) fold into the
  /// first recorded instance instead of growing the log.
  uint64_t occurrences = 1;

  std::string Describe() const;
};

/// Records per-page protocol state and flags clients that break the
/// one-sided lock/version discipline.
///
/// Tracking is behavioral: a remote 8-byte word becomes a *tracked version
/// word* the first time a client lock-acquires it with the protocol's CAS
/// shape (`CAS(word: v -> v|1)` with the lock bit clear in `v`). Until
/// then, writes to that memory are unchecked — which is exactly right for
/// bootstrap and fresh-page initialization, where pages are private to the
/// allocating client and written without locks by design.
///
/// On top of the per-verb shape checks, the auditor maintains a
/// happens-before order over verbs (sparse vector clocks per client, per
/// memory-server RPC service point, and per tracked word) and reports any
/// two overlapping accesses to a tracked page that are neither HB-ordered
/// nor arbitrated by the version protocol as kRemoteRace. HB edges:
///   - program order within one client (chained verbs included);
///   - lock hand-off: a release (FAA, unlock WRITE, lock-clearing CAS)
///     publishes the releaser's clock on the word; a successful
///     lock-acquire CAS joins it;
///   - version validation: a READ covering the version word joins the
///     word's last release (observing the word implies that release
///     completed);
///   - sanctioned lock steal: the stealer joins the dead holder's clock;
///   - RPC: a request delivery joins the caller's clock into the server's
///     service clock, a consumed reply joins the service clock back.
///
/// The fabric calls the `On*` hooks at verb post / memory-effect time; all
/// checks run at the same virtual instant as the effect they police, so the
/// verdicts are deterministic for a given (workload seed, schedule seed).
class VerbAuditor {
 public:
  VerbAuditor() = default;

  VerbAuditor(const VerbAuditor&) = delete;
  VerbAuditor& operator=(const VerbAuditor&) = delete;

  /// Runtime kill-switch (the compile-time switch is NAMTREE_AUDIT). While
  /// disabled, hooks neither check nor update state.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Installs the client-liveness oracle used to adjudicate lock steals
  /// (the fabric wires in its own crash registry). Without a probe every
  /// steal is flagged as kLockStealFromLiveHolder — the conservative
  /// default for hand-built test rigs.
  void SetLivenessProbe(std::function<bool(uint32_t)> probe) {
    liveness_probe_ = std::move(probe);
  }

  /// Registers the auditor's tallies as metric families (the fabric wires
  /// in its registry right after construction):
  ///   audit.lock_steals               sanctioned CAS-clears of dead locks
  ///   audit.violations{kind}          occurrences per ViolationKind
  ///   audit.suppressed_violations     occurrences dropped at the cap
  ///   audit.tracked_words             words under tracking (gauge-like)
  /// Optional: a standalone auditor (no registry) keeps counting locally.
  /// The registry must outlive the auditor.
  void BindMetrics(metrics::MetricRegistry* registry);

  // ---- Hooks, called by the fabric ---------------------------------------

  /// A WRITE was posted at virtual time `now`; its memory effect lands
  /// later. Returns a ticket to pass to OnWriteEffect. `chain` is the
  /// doorbell-chain id for batched members (0 = standalone verb).
  uint64_t OnWritePosted(uint32_t client, RemotePtr dst, uint32_t len,
                         SimTime now, uint64_t chain = 0);

  /// The WRITE's payload is about to be installed (called *before* the
  /// memcpy so pre-image values are still observable). Consumes the ticket.
  void OnWriteEffect(uint64_t ticket, const void* payload, SimTime now);

  /// A READ's memory effect (the copy-out) is happening now.
  void OnReadEffect(uint32_t client, RemotePtr src, uint32_t len,
                    SimTime now, uint64_t chain = 0);

  /// A CAS executed: `observed` is the pre-image (swap happened iff
  /// observed == expected).
  void OnCasEffect(uint32_t client, RemotePtr target, uint64_t expected,
                   uint64_t desired, uint64_t observed, SimTime now,
                   uint64_t chain = 0);

  /// A FETCH_AND_ADD executed: `prev` is the pre-image.
  void OnFaaEffect(uint32_t client, RemotePtr target, uint64_t add,
                   uint64_t prev, SimTime now, uint64_t chain = 0);

  /// An in-place READ image was pinned at its effect: keeps an
  /// effect-time shadow of the `len` bytes at `bytes`, keyed by `image`
  /// (a re-pin replaces it).
  void OnImagePinned(const void* image, uint32_t client, RemotePtr target,
                     const uint8_t* bytes, uint32_t len);

  /// The image keyed `image` was released while reading `served` (the
  /// pinned page or its copied-out buffer): reports kUnhookedWrite when
  /// those bytes differ from the shadow.
  void OnImageReleased(const void* image, const uint8_t* served, SimTime now);

  /// A posted WRITE was dropped in flight (its client crashed before the
  /// memory effect). Consumes the ticket without applying any checks.
  void DropWrite(uint64_t ticket);

  /// An RPC request from `client` was delivered to `server`'s receive
  /// queue: the server's service clock joins the caller's.
  void OnRpcRequest(uint32_t client, uint32_t server);

  /// `client` consumed a reply from `server`: the caller's clock joins the
  /// server's service clock.
  void OnRpcReply(uint32_t client, uint32_t server);

  /// Memory server `server` died: its region's contents are gone, so every
  /// tracked word it hosted is forgotten — a dead *server* (like a dead
  /// holder) sanctions recovery, and LockedWords() must not report locks
  /// that no longer exist anywhere. Idempotent; promoted replicas on live
  /// servers start tracking fresh at their first protocol-shaped acquire
  /// CAS, so failover needs no explicit HB edges.
  void OnServerDeath(uint32_t server);

  // ---- Queries ------------------------------------------------------------

  /// A tracked version word that is currently locked, with its holder.
  struct LockedWordInfo {
    RemotePtr target;
    uint32_t holder = 0;
  };

  /// All tracked words whose lock bit is currently set. Crash tests use
  /// this to enumerate orphaned locks for recovery before inspecting the
  /// tree at quiescence.
  std::vector<LockedWordInfo> LockedWords() const;

  /// Number of sanctioned lock steals (CAS-clear of a dead holder's lock).
  uint64_t lock_steals() const { return lock_steals_; }

  /// Distinct recorded violations (one per (kind, target), capped at
  /// kMaxStoredViolations; repeats bump Violation::occurrences).
  const std::vector<Violation>& violations() const { return violations_; }
  size_t violation_count() const { return violations_.size(); }
  /// Occurrences of `kind`, summed across its deduplicated records.
  size_t CountOfKind(ViolationKind kind) const;
  /// Total occurrences across all records, including ones folded into an
  /// existing record and ones dropped at the storage cap.
  uint64_t total_violation_occurrences() const { return total_occurrences_; }
  /// Occurrences dropped because kMaxStoredViolations distinct records
  /// already existed (their (kind, target) was new, so nothing to fold
  /// into).
  uint64_t suppressed_violations() const { return suppressed_violations_; }

  /// Cap on *distinct* stored violations: multi-seed exploration runs over
  /// broken protocols must not grow memory without bound.
  static constexpr size_t kMaxStoredViolations = 256;

  /// Number of version words currently under protocol tracking.
  size_t tracked_words() const;

  /// OK when the log is empty, otherwise Corruption with a summary of the
  /// first violation and the total count.
  Status CheckClean() const;

  /// Forgets all recorded violations (tracking state is kept).
  void ClearViolations();

  /// Drops all state: violations, tracked words, in-flight writes, clocks.
  void Reset();

  // ---- Verb trace ---------------------------------------------------------

  /// One verb memory effect, as retained in the replay trace ring.
  struct VerbRecord {
    uint32_t client = 0;
    const char* op = "";
    RemotePtr target;
    uint32_t len = 0;
    uint64_t chain = 0;
    SimTime time = 0;

    std::string Describe() const;
  };

  /// Ring buffer of the most recent verb effects (newest last). CI's
  /// schedule-exploration job dumps this next to the failing seed so a
  /// race report can be replayed and read without rerunning locally first.
  const std::deque<VerbRecord>& trace() const { return trace_; }
  /// Resizes the ring (0 disables tracing).
  void set_trace_capacity(size_t n);
  /// The trace, one record per line.
  std::string DumpTrace() const;

 private:
  /// Sparse vector clock over client ids. Entries default to 0.
  class VectorClock {
   public:
    uint64_t Of(uint32_t client) const {
      auto it = counts_.find(client);
      return it == counts_.end() ? 0 : it->second;
    }
    void Tick(uint32_t client) { counts_[client]++; }
    void Join(const VectorClock& other) {
      for (const auto& [client, count] : other.counts_) {
        uint64_t& mine = counts_[client];
        if (count > mine) mine = count;
      }
    }
    void Clear() { counts_.clear(); }

   private:
    std::unordered_map<uint32_t, uint64_t> counts_;
  };

  /// One remembered data access to a tracked page, with the issuer's
  /// scalar clock at effect time — enough to evaluate happens-before
  /// against any later access and to print a stack-of-record.
  struct Access {
    uint32_t client = 0;
    uint64_t clock = 0;
    uint64_t chain = 0;
    RemotePtr at;
    uint32_t len = 0;
    SimTime time = 0;
    const char* op = "";
    /// Write: issued while holding the page lock. Read: covered the
    /// version word (version-validated).
    bool disciplined = false;

    std::string Describe() const;
  };

  struct WordState {
    bool locked = false;
    uint32_t holder = 0;     // valid while locked
    uint64_t last_word = 0;  // last value the auditor saw installed
    // ---- happens-before state ----
    /// Clock of the last lock release; joined by acquirers and by
    /// version-validated readers.
    VectorClock release_vc;
    /// Learned page span [word, word + extent): grown by accesses that
    /// start at the word, so lock-elided accesses into the page body can
    /// be associated with it.
    uint64_t extent = 8;
    bool has_last_write = false;
    Access last_write;
    /// Latest read per client, split by validation class. Bounded by the
    /// client count; superseded in place.
    std::unordered_map<uint32_t, Access> validated_reads;
    std::unordered_map<uint32_t, Access> elided_reads;
  };

  /// Effect-time copy of one in-place image, kept per image address so a
  /// client's reused images recycle their buffers.
  struct ImageShadow {
    bool pinned = false;  ///< a pin not yet released
    uint32_t client = 0;
    RemotePtr target;
    std::vector<uint8_t> bytes;
  };

  struct InflightWrite {
    uint32_t client = 0;
    RemotePtr dst;
    uint32_t len = 0;
    uint64_t chain = 0;
    /// True when the write covered >= 1 tracked word the writer did not
    /// hold at post time — overlapping reads are torn-read suspects.
    bool unprotected = false;
  };

  /// Tracked version words of one server, keyed by region offset (ordered,
  /// so writes can range-query the words they cover).
  using ServerWords = std::map<uint64_t, WordState>;

  // Lock-word layout constants, duplicated from btree/types.h (the rdma
  // layer deliberately does not depend on btree): bit 0 = lock bit, bits
  // 48..63 = holder client id (stale garbage while unlocked), the rest is
  // the version. Version comparisons must mask the holder bits.
  static bool LockedWord(uint64_t word) { return (word & 1ull) != 0; }
  static uint64_t VersionPart(uint64_t word) {
    return word & ~(1ull | (0xFFFFull << 48));
  }

  WordState* FindWord(RemotePtr target);

  /// Advances `client`'s clock by one verb effect and returns the new
  /// scalar value (the clock stamp of that effect).
  uint64_t Tick(uint32_t client);
  /// True when the remembered access is HB-ordered before `later_client`'s
  /// current point (program order falls out: a client always covers its
  /// own past stamps).
  bool HappensBefore(const Access& earlier, uint32_t later_client);
  /// Builds the access record for the verb effect happening now.
  Access MakeAccess(uint32_t client, const char* op, RemotePtr at,
                    uint32_t len, uint64_t chain, SimTime now);
  /// Invokes fn(word_offset, state) for every tracked word of `server`
  /// whose learned page span overlaps [lo, hi).
  template <typename Fn>
  void ForEachCoveredWord(uint32_t server, uint64_t lo, uint64_t hi,
                          Fn&& fn);
  /// HB race pass of a write effect against one covered word (called with
  /// pre-mirror state). Stamps the write's discipline, reports unordered
  /// overlaps, installs it as the word's last write, and retires reads
  /// the write is ordered after.
  void CheckWriteRaces(WordState& state, RemotePtr word_ptr,
                       const Access& write, SimTime now);

  void Report(ViolationKind kind, uint32_t client, RemotePtr target,
              uint64_t observed, uint64_t attempted, SimTime now);
  void ReportRace(const Access& earlier, const Access& later,
                  RemotePtr word, SimTime now);
  /// Deduplicating sink behind both Report flavors.
  void Record(Violation v);
  void RecordTrace(uint32_t client, const char* op, RemotePtr target,
                   uint32_t len, uint64_t chain, SimTime now);

  bool enabled_ = true;
  std::function<bool(uint32_t)> liveness_probe_;
  std::unordered_map<uint32_t, ServerWords> words_;
  std::unordered_map<uint64_t, InflightWrite> inflight_;
  std::unordered_map<const void*, ImageShadow> image_shadows_;
  uint64_t next_ticket_ = 1;
  metrics::Counter lock_steals_;
  std::vector<Violation> violations_;
  /// (kind, target raw) -> index into violations_, for deduplication.
  std::map<std::pair<int, uint64_t>, size_t> violation_index_;
  metrics::Counter total_occurrences_;
  metrics::Counter suppressed_violations_;
  std::unordered_map<uint32_t, VectorClock> client_vc_;
  std::unordered_map<uint32_t, VectorClock> server_vc_;
  std::deque<VerbRecord> trace_;
  size_t trace_capacity_ = 2048;
};

}  // namespace namtree::rdma

#endif  // NAMTREE_RDMA_AUDIT_H_
