#ifndef NAMTREE_RDMA_FABRIC_H_
#define NAMTREE_RDMA_FABRIC_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "rdma/audit.h"
#include "rdma/fabric_config.h"
#include "rdma/memory_region.h"
#include "rdma/remote_ptr.h"
#include "rdma/rpc.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace namtree::rdma {

/// Outcome of a liveness-registry read (Fabric::ReadClientEpoch): OK with
/// the liveness snapshot, or kUnavailable when every server that could host
/// the target's epoch record is dead (the probe must not spin forever).
/// Default-constructible — coroutine Task payloads must be.
struct EpochReadResult {
  Status status;
  bool alive = true;
};

/// How a posted verb completed from the initiating client's point of view.
/// kOk = the completion arrived (the memory effect, if any, is visible).
/// kLost = no completion within the retransmission budget: either the verb
/// never executed (dropped before the NIC) or it executed and only the
/// acknowledgement was lost — the caller cannot tell which and must resolve
/// the ambiguity by protocol (docs/fault_model.md §8). Only a flaky-network
/// fault domain produces kLost; lossless runs always see kOk.
enum class VerbCompletion : uint8_t { kOk, kLost };

/// Completion + previous value of an RDMA atomic (CAS / FETCH_AND_ADD).
/// `value` is meaningful only when ok(): a lost atomic completion delivers
/// no pre-image, which is exactly the ambiguity the client must resolve by
/// reading the word back. Default-constructible for coroutine payloads.
struct AtomicResult {
  uint64_t value = 0;
  VerbCompletion completion = VerbCompletion::kOk;
  bool ok() const { return completion == VerbCompletion::kOk; }
};

/// A READ chain member's image left in place (head-node prefetch, §4.3).
/// The member's effect does not copy the target bytes: it pins the target,
/// and `data()` points into the target region. A later WRITE, CAS or FAA
/// whose effect overlaps a pinned image first copies the pinned bytes into
/// the member's own buffer (the READ's `dst`) and repoints `data()` there,
/// so the consumer always reads the bytes as of the READ's effect. The
/// consumer releases every image it handed to a batch
/// (Fabric::ReleaseImages) once it is done with it; a released image is
/// never copied. Not copyable: the fabric indexes pinned images by address.
class InPlaceImage {
 public:
  InPlaceImage() = default;
  InPlaceImage(const InPlaceImage&) = delete;
  InPlaceImage& operator=(const InPlaceImage&) = delete;

  /// The effect-time bytes: the target page itself while pinned, the
  /// member's buffer once a write copied them out, nullptr when no effect
  /// reached the member (a dropped verb).
  const uint8_t* data() const { return data_; }
  /// True while the image reads the target region directly.
  bool pinned() const { return pinned_; }

 private:
  friend class Fabric;
  const uint8_t* data_ = nullptr;
  uint8_t* buffer_ = nullptr;  ///< the member's buffer (copy-out target)
  RemotePtr target_;
  uint32_t len_ = 0;
  uint64_t block_ = 0;  ///< pinned-image index key (Fabric::ImageBlock)
  bool pinned_ = false;
};

/// The simulated RDMA network connecting compute clients to memory servers.
///
/// All verbs perform their *real* memory effect (copy / compare-and-swap /
/// fetch-and-add against the registered `MemoryRegion`) at the virtual time
/// at which the target NIC would execute them, so concurrent protocols
/// observe exactly the interleavings a real one-sided fabric produces
/// (verb-atomic granularity, serialized by the target NIC engine).
///
/// Resources modeled per memory server: a NIC processing engine (serializes
/// verb execution; occupancy depends on verb type, FabricConfig) and tx/rx
/// links at FDR-4x port bandwidth. Compute machines contribute tx/rx links
/// shared by their (default 40) clients. Co-located accesses (Appendix A.3)
/// bypass the wire and use the machine-local memory bus instead.
class Fabric {
 public:
  Fabric(sim::Simulator& simulator, const FabricConfig& config);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  const FabricConfig& config() const { return config_; }

  // ---- Registration / topology ------------------------------------------

  /// Registers `region` as memory server `server_id`'s RDMA-visible memory.
  void RegisterRegion(uint32_t server_id, MemoryRegion* region);

  MemoryRegion* region(uint32_t server_id) {
    return memory_servers_[server_id].region;
  }
  Srq& srq(uint32_t server_id) { return *memory_servers_[server_id].srq; }

  uint32_t num_memory_servers() const { return config_.num_memory_servers; }

  /// Informs the fabric how many closed-loop clients exist (sizes the
  /// per-connection overhead term and the compute machine count).
  void SetNumClients(uint32_t n);
  uint32_t num_clients() const { return num_clients_; }

  /// Compute machine hosting `client`.
  uint32_t ClientMachine(uint32_t client) const {
    return client / config_.clients_per_compute_machine;
  }

  /// True when `client` and memory server `server` share a machine and the
  /// co-located fast path applies.
  bool IsLocal(uint32_t client, uint32_t server) const {
    return config_.colocate &&
           ClientMachine(client) == config_.MemoryServerMachine(server);
  }

  // ---- Crash-fault injection ---------------------------------------------

  /// Kills `client` at virtual time `at_time` (0 or past = immediately).
  /// From its death on, the client's in-flight verbs are dropped before
  /// their memory effect and every verb it posts returns without effect;
  /// callers observe this through `RemoteOps` as Status::Unavailable.
  /// Deterministic alternative: FabricConfig::crash_points kills a client
  /// after its Nth verb. Killing is idempotent; the earliest time wins.
  void KillClient(uint32_t client, SimTime at_time = 0);

  /// Client liveness at the current virtual time. This is the
  /// fabric-maintained registry that waiters consult (via ReadClientEpoch)
  /// before stealing an orphaned lock.
  bool ClientAlive(uint32_t client) const {
    return client >= clients_.size() ||
           simulator_.now() < clients_[client].death_time;
  }

  /// One-sided READ of `target`'s liveness record from the registry page
  /// hosted on memory server `target % num_memory_servers` (or, under
  /// replication, the first live server of that record's replica group).
  /// Charges the full 8-byte READ cost shape (post, wire, engine,
  /// response) to `reader` and returns the liveness snapshot taken at the
  /// verb's memory effect. A dead reader learns nothing and gets OK/true;
  /// a dead *registry host* (every replica gone) surfaces kUnavailable so
  /// waiters bound their probing instead of spinning forever.
  sim::Task<EpochReadResult> ReadClientEpoch(uint32_t reader,
                                             uint32_t target);

  // ---- Memory-server fault domain -----------------------------------------

  /// Kills memory server `server` at virtual time `at_time` (0 or past =
  /// immediately). From its death on, one-sided verbs targeting its region
  /// drop before their memory effect (per chain *member* — members bound
  /// for live servers still land), RPCs routed to it complete with
  /// kUnavailable, and its worker loop stops consuming the SRQ. Killing is
  /// idempotent; the earliest time wins. Deterministic alternative:
  /// FabricConfig::server_crash_points.
  void KillServer(uint32_t server, SimTime at_time = 0);

  /// Memory-server liveness at the current virtual time.
  bool ServerAlive(uint32_t server) const {
    return simulator_.now() < server_death_time_[server];
  }

  /// Verb effects executed against `server` so far (server crash points
  /// key off this count).
  uint64_t server_verbs_executed(uint32_t server) const {
    return server_verbs_executed_[server];
  }

  // ---- Network fault domain (flaky fabric) --------------------------------

  /// Severs the (client, server) link from `at_time` (0 or past =
  /// immediately) until HealLink: every verb the client posts at that
  /// server is dropped before its memory effect and its completion never
  /// arrives (kLost after the retransmission budget). Both endpoints stay
  /// alive — this is a partial partition, not a crash.
  void PartitionLink(uint32_t client, uint32_t server, SimTime at_time = 0);

  /// Restores a severed link immediately.
  void HealLink(uint32_t client, uint32_t server);

  /// True when the (client, server) link is severed at the current virtual
  /// time.
  bool LinkPartitioned(uint32_t client, uint32_t server) const;

  /// True once any network-fault source can still fire: configured
  /// probabilities / fault points, or at least one severed link. Client
  /// protocols consult this to decide whether ambiguity bookkeeping (e.g.
  /// the allocation-cursor pre-read) is worth a round trip — knobs-off
  /// runs must stay verb-for-verb identical.
  bool NetFaultsLive() const {
    return net_faults_configured_ || !partitioned_links_.empty();
  }

  // ---- Replication ---------------------------------------------------------

  /// Effective replication degree: FabricConfig::replication_factor clamped
  /// to [1, num_memory_servers].
  uint32_t replication() const { return replication_; }
  bool replicated() const { return replication_ > 1; }

  /// Bytes of one rank stripe of `server`'s page area (capacity minus the
  /// header, divided by R). Rank 0 [kHeaderSize, kHeaderSize + stripe) is
  /// the server's own primary stripe; rank r >= 1 holds backups of server
  /// (s - r + N) % N's primaries.
  uint64_t ReplicaStripeBytes(uint32_t server) const {
    return (region_capacity(server) - MemoryRegion::kHeaderSize) /
           replication_;
  }

  /// Address of replica `rank` of the page at primary address `primary`:
  /// server (s + rank) % N, offset shifted up by rank stripes. Rank 0 is
  /// the identity. Pure formula — no directory.
  RemotePtr ReplicaPtr(RemotePtr primary, uint32_t rank) const {
    if (rank == 0) return primary;
    const uint32_t server =
        (primary.server_id() + rank) % config_.num_memory_servers;
    const uint64_t off = primary.offset() - MemoryRegion::kHeaderSize;
    return RemotePtr::Make(
        server, MemoryRegion::kHeaderSize +
                    rank * ReplicaStripeBytes(primary.server_id()) + off);
  }

  /// Primary-allocation cap of `server`'s region: its rank-0 stripe end
  /// under replication, full capacity otherwise.
  uint64_t AllocLimit(uint32_t server) const {
    return replicated()
               ? MemoryRegion::kHeaderSize + ReplicaStripeBytes(server)
               : region_capacity(server);
  }

  /// Copies every server's allocated primary pages into its backup ranks
  /// (setup-time catch-up after bulk load, outside simulated time). No-op
  /// at R=1. Region headers (alloc cursors, catalog slots) are not
  /// replicated.
  void SyncReplicasFromPrimaries();

  // ---- One-sided verbs ----------------------------------------------------

  /// RDMA READ: copies `len` bytes from remote memory into `dst`. Returns
  /// kLost when a network fault swallowed the verb or its completion (the
  /// buffer is then unspecified); always kOk on a lossless fabric.
  sim::Task<VerbCompletion> Read(uint32_t client, RemotePtr src, void* dst,
                                 uint32_t len);

  /// One verb descriptor: an element of a doorbell-batched chain
  /// (PostChain, ReadBatch), and what every standalone one-sided verb is
  /// built from. kEpoch is ReadClientEpoch's effect: an 8-byte READ of
  /// `subject`'s liveness record, not a chain member.
  struct ChainOp {
    enum class Kind : uint8_t { kRead, kWrite, kCas, kFaa, kEpoch };

    Kind kind = Kind::kRead;
    RemotePtr target;
    /// READ destination buffer; with `image`, the buffer that receives the
    /// image only when a write copies it out.
    void* dst = nullptr;
    const void* src = nullptr;  ///< WRITE source buffer
    /// READ-only-chain members: pin the target instead of copying it
    /// (InPlaceImage). The poster releases it (ReleaseImages).
    InPlaceImage* image = nullptr;
    uint32_t len = 0;
    uint64_t expected = 0;      ///< CAS compare value
    uint64_t desired = 0;       ///< CAS swap value / FAA addend
    uint64_t* result = nullptr; ///< CAS/FAA pre-image sink (optional)
    uint32_t subject = 0;       ///< EPOCH: client whose liveness is read
    /// Fence: drop this member at effect time if the named server is dead
    /// by then (-1 = unfenced). Replicated unlock chains fence backup
    /// WRITEs on the lock-holding primary: once the primary dies, a
    /// reader may already have promoted a backup, so a late backup WRITE
    /// must not clobber it. Soundness: the member's effect is either
    /// before the primary's death (lands before any promotion could
    /// begin) or after it (dropped).
    int32_t fence_server = -1;

    static ChainOp Read(RemotePtr src, void* dst, uint32_t len,
                        InPlaceImage* image = nullptr) {
      ChainOp op;
      op.kind = Kind::kRead;
      op.target = src;
      op.dst = dst;
      op.len = len;
      op.image = image;
      return op;
    }
    static ChainOp Write(RemotePtr dst, const void* src, uint32_t len) {
      ChainOp op;
      op.kind = Kind::kWrite;
      op.target = dst;
      op.src = src;
      op.len = len;
      return op;
    }
    static ChainOp Cas(RemotePtr target, uint64_t expected, uint64_t desired,
                       uint64_t* result = nullptr) {
      ChainOp op;
      op.kind = Kind::kCas;
      op.target = target;
      op.len = 8;
      op.expected = expected;
      op.desired = desired;
      op.result = result;
      return op;
    }
    static ChainOp Faa(RemotePtr target, uint64_t add,
                       uint64_t* result = nullptr) {
      ChainOp op;
      op.kind = Kind::kFaa;
      op.target = target;
      op.len = 8;
      op.desired = add;
      op.result = result;
      return op;
    }
    bool atomic() const { return kind == Kind::kCas || kind == Kind::kFaa; }
  };

  /// Doorbell-batched chain of READ/WRITE/CAS/FAA verbs: all ops are posted
  /// back-to-back with one doorbell and only the tail signaled, so each
  /// member is charged the cheap unsignaled engine cost (atomics keep
  /// their lock-unit cost). The whole chain counts as *one* verb against
  /// the poster's crash point; a client that dies mid-chain loses the
  /// not-yet-executed tail atomically.
  ///
  /// Ordering: a READ-only chain executes its members independently (the
  /// selectively-signaled prefetch of §4.3). As soon as the chain contains
  /// a WRITE or an atomic, members take effect strictly in posting order —
  /// the initiating NIC streams the WQEs sequentially — which is what
  /// makes the {page WRITE, unlock WRITE} and split chains safe to combine.
  /// Completes when the signaled tail's response has arrived. Under
  /// network faults a chain member can be dropped individually; the first
  /// dropped member also kills the not-yet-executed tail (the NIC stops
  /// streaming WQEs past a faulted one), and the chain completes kLost.
  /// `ops` is the caller's storage and must outlive the task; a retry
  /// re-posts the same span.
  sim::Task<VerbCompletion> PostChain(uint32_t client,
                                      std::span<ChainOp> ops);

  /// Selectively-signaled batch of READs (head-node prefetch, §4.3): a
  /// READ-only PostChain over the caller's `reads` (every member kRead).
  /// Completes when the last read has arrived. Members that carry an
  /// InPlaceImage pin their target at their effect; a re-post re-pins.
  sim::Task<VerbCompletion> ReadBatch(uint32_t client,
                                      std::span<ChainOp> reads);

  /// Ends the images' pins: a pinned image stops reading the target region
  /// (data() becomes nullptr) and no later write copies it. Releasing an
  /// unpinned or never-pinned image only resets it. Under the auditor, the
  /// bytes each image served are checked against its effect-time shadow
  /// (ViolationKind::kUnhookedWrite).
  void ReleaseImages(std::span<InPlaceImage> images);

  /// RDMA WRITE: copies `len` bytes from `src` into remote memory. kLost
  /// when a network fault swallowed the verb or its completion; the bytes
  /// may or may not have landed (idempotent re-post is safe).
  sim::Task<VerbCompletion> Write(uint32_t client, RemotePtr dst,
                                  const void* src, uint32_t len);

  /// RDMA compare-and-swap on an 8-byte remote word. On kOk, `value` is
  /// the previous value (equal to `expected` iff the swap happened). On
  /// kLost the swap may or may not have executed — resolve by reading the
  /// word back (the holder stamp / version tells which).
  sim::Task<AtomicResult> CompareAndSwap(uint32_t client, RemotePtr target,
                                         uint64_t expected, uint64_t desired);

  /// RDMA fetch-and-add on an 8-byte remote word. On kOk, `value` is the
  /// previous value. On kLost the add may or may not have executed.
  sim::Task<AtomicResult> FetchAndAdd(uint32_t client, RemotePtr target,
                                      uint64_t add);

  // ---- Two-sided verbs (RPC) ----------------------------------------------

  /// Sends `request` to `server` via SEND/RECV and suspends until the reply
  /// SEND arrives. With FabricConfig::rpc_timeout_ns set, each attempt is
  /// abandoned after the deadline and resent up to rpc_max_retries times;
  /// exhaustion yields a response with status kTimedOut, and a dead caller
  /// gets kUnavailable.
  sim::Task<RpcResponse> Call(uint32_t client, uint32_t server,
                              RpcRequest request);

  /// Called by a memory-server handler to reply to `incoming`. The caller
  /// keeps running; the response is delivered in the background. A response
  /// whose caller has abandoned the call (timeout / death) still pays the
  /// send costs but is dropped.
  void Respond(uint32_t server, const IncomingRpc& incoming,
               RpcResponse response);

  /// Server-side exactly-once admission, called by a worker before invoking
  /// the handler for `rpc`. Returns true when the handler should execute.
  /// Returns false for a retransmission of a request that already executed
  /// (the cached response is resent without re-running the handler) or that
  /// is still executing (the duplicate is parked and answered when the
  /// original responds). Handlers mutate index state, so this layer — not
  /// handler idempotence — is what makes the Call resend discipline safe.
  /// No-op (always true) when network faults are off: rpc_id is 0 then.
  bool AdmitRpc(uint32_t server, const IncomingRpc& rpc);

  // ---- Verb-protocol audit ------------------------------------------------

  /// The protocol auditor watching this fabric's verbs, or nullptr when the
  /// build compiled it out (-DNAMTREE_AUDIT=OFF; plain Release default).
  VerbAuditor* auditor() { return auditor_.get(); }
  const VerbAuditor* auditor() const { return auditor_.get(); }

  /// OK when no protocol violations were recorded (or auditing is compiled
  /// out), otherwise Corruption describing the first violation.
  Status CheckAuditClean() const {
    return auditor_ ? auditor_->CheckClean() : Status::OK();
  }

  // ---- Statistics ----------------------------------------------------------

  /// The one registry of fabric-level (and, by registration, client- and
  /// audit-level) metric families. Every counter the fabric maintains is a
  /// registered family — read them via `metrics().Value("fabric.doorbells")`
  /// etc. or collect a Snapshot/Delta; there are no per-counter getters.
  /// Families:
  ///   fabric.signaled_verbs    verbs posted with a signaled completion
  ///                            since the last ResetStats (standalone verbs
  ///                            plus each chain's signaled tail)
  ///   fabric.unsignaled_verbs  chain members riding a doorbell without
  ///                            their own completion
  ///   fabric.doorbells         doorbell rings: one per standalone verb,
  ///                            one per chain
  ///   fabric.dropped_verbs     verbs dropped because their client was dead
  ///                            at post or effect time (never reset)
  ///   fabric.dropped_responses RPC responses whose caller had abandoned
  ///                            the call (never reset)
  ///   fabric.rpc_timeouts      RPC attempts abandoned at the deadline
  ///                            (never reset)
  ///   fabric.net.dropped_verbs        verbs lost before the target NIC
  ///                                   (no memory effect; never reset)
  ///   fabric.net.dropped_completions  verbs whose effect applied but whose
  ///                                   acknowledgement was lost (never reset)
  ///   fabric.net.duplicates           verbs re-executed at the NIC (never
  ///                                   reset)
  ///   fabric.net.delayed_verbs        verbs stretched by delay jitter
  ///                                   (never reset)
  ///   fabric.net.partitioned_drops    verbs dropped on a severed link
  ///                                   (never reset)
  ///   fabric.inplace_images{outcome}  in-place READ images (head-node
  ///                            prefetch): outcome=served released while
  ///                            still pinned, outcome=copied copied out by
  ///                            an overlapping WRITE/CAS/FAA (never reset)
  ///   retry.attempts{domain}   re-attempts after a failed try, by retry
  ///                            domain (rpc here; lock/verb/steal are
  ///                            registered by ClientContext; never reset)
  ///   retry.exhausted{domain}  retry budgets used up (never reset)
  ///   server.bytes{server}     per-server tx+rx bytes since last reset
  metrics::MetricRegistry& metrics() { return metrics_; }
  const metrics::MetricRegistry& metrics() const { return metrics_; }

  struct ServerStats {
    uint64_t tx_bytes = 0;
    uint64_t rx_bytes = 0;
    // namtree-lint: metric-ok(per-server effect-time accounting exposed to the registry via the server.bytes callback family)
    uint64_t verbs = 0;
    SimTime engine_busy = 0;
    // Per-verb breakdown (target-side).
    // namtree-lint: metric-ok(see verbs)
    uint64_t reads = 0;
    // namtree-lint: metric-ok(see verbs)
    uint64_t writes = 0;
    uint64_t atomics = 0;
    uint64_t sends = 0;
  };

  ServerStats server_stats(uint32_t server) const;

  /// Verbs issued by `client` so far (crash points key off this count).
  uint64_t client_verbs(uint32_t client) const {
    return client < clients_.size() ? clients_[client].verbs_posted : 0;
  }
  /// Per-RPC service-time surcharge from connection bookkeeping
  /// (`per_client_poll_ns` x connected clients).
  SimTime PerRequestConnectionOverhead() const {
    return static_cast<SimTime>(config_.per_client_poll_ns * num_clients_);
  }

  /// One wire traversal, with fault-injection jitter applied when enabled.
  SimTime WireLatency() {
    if (config_.latency_jitter <= 0) return config_.wire_latency_ns;
    const double factor = 1.0 + config_.latency_jitter * jitter_rng_.NextDouble();
    return static_cast<SimTime>(config_.wire_latency_ns * factor);
  }

  /// Straggler factor of memory server `s` (1.0 when none injected).
  double ServerSlowdown(uint32_t server) const {
    if (server < config_.server_slowdown.size()) {
      return config_.server_slowdown[server];
    }
    return 1.0;
  }

  /// NIC engine occupancy at `server`, scaled for injected stragglers.
  SimTime EngineCost(uint32_t server, SimTime base) const {
    return static_cast<SimTime>(base * ServerSlowdown(server));
  }

  void ResetStats();

 private:
  struct MemoryServerEndpoint {
    MemoryServerEndpoint(sim::Simulator& simulator, double bw)
        : tx(bw), rx(bw), engine(bw), srq(new Srq(simulator)) {}
    sim::Link tx;
    sim::Link rx;
    sim::Link engine;  // occupancy-only (ReserveOccupancy)
    std::unique_ptr<Srq> srq;
    MemoryRegion* region = nullptr;
    // namtree-lint: metric-ok(NIC-model working state folded into ServerStats at effect time; never read as a metric itself)
    uint64_t reads = 0;
    // namtree-lint: metric-ok(see reads)
    uint64_t writes = 0;
    uint64_t atomics = 0;
    uint64_t sends = 0;
  };

  struct ComputeEndpoint {
    explicit ComputeEndpoint(double bw) : tx(bw), rx(bw) {}
    sim::Link tx;
    sim::Link rx;
  };

  /// Ensures the compute machine endpoint for `client` exists; returns it.
  ComputeEndpoint& ComputeFor(uint32_t client);

  /// Machine-local bus for co-located transfers on memory machine `m`.
  sim::Link& LocalBus(uint32_t machine) { return *local_bus_[machine]; }

  /// Validates that [ptr, ptr+len) lies inside the registered region.
  uint8_t* TargetAddress(RemotePtr ptr, uint32_t len);
  /// Asks the host CPU to fetch a READ's source bytes at post time, so the
  /// copy or pin at its effect event finds them in cache. A hint only.
  void PrefetchSource(const ChainOp& op) const;

  /// Crash-fault state of one client, indexed by client id.
  struct ClientFaults {
    SimTime death_time = std::numeric_limits<SimTime>::max();  // immortal
    uint64_t crash_after = std::numeric_limits<uint64_t>::max();  // none
    // namtree-lint: metric-ok(fault-model state that crash and fault points key off; read via client_verbs(), never plumbed into results)
    uint64_t verbs_posted = 0;
  };

  /// `client`'s crash-fault state, created on first use.
  ClientFaults& FaultsFor(uint32_t client) {
    if (client >= clients_.size()) clients_.resize(client + 1);
    return clients_[client];
  }

  /// Counts one verb against `client` and evaluates its crash point.
  /// Returns false when the client is (or just became) dead — the caller
  /// must drop the verb without a memory effect.
  bool CountVerbAndCheckAlive(uint32_t client);

  /// Effect-time gate of the server fault domain: counts one verb effect
  /// against `server` and evaluates its crash point. Returns false when
  /// the server is dead (or died on exactly this verb) — the caller must
  /// drop the effect. Cost reservations are never affected, so healthy
  /// runs stay bit-identical.
  bool ServerVerbExecutes(uint32_t server);

  /// What the network does to one verb on the (client, server) link.
  enum class NetFaultKind : uint8_t {
    kNone,
    kDropVerb,        ///< lost before the NIC: no effect, no completion
    kDropCompletion,  ///< effect applied, acknowledgement lost
    kDuplicate,       ///< executed twice at the NIC
  };
  struct NetFault {
    NetFaultKind kind = NetFaultKind::kNone;
    SimTime extra_delay = 0;    ///< additive delay-jitter draw
    bool partitioned = false;   ///< drop caused by a severed link
  };

  /// Decides the network's treatment of the verb `client` just posted at
  /// `server`. Called once per posted verb (chains: once per member), but
  /// only when `net_faults_live_` — knobs-off runs never reach the RNG.
  /// Exact verb_fault_points (matched against the post-order verb counter,
  /// consumed once) take precedence; a severed link forces kDropVerb; then
  /// the link's probabilistic knobs draw from `net_rng_`. Random dup draws
  /// skip atomics when `is_atomic` (RC NICs answer retransmitted atomics
  /// from the response cache — exactly-once); only an exact fault point
  /// can force an atomic duplicate.
  NetFault DrawNetFault(uint32_t client, uint32_t server, bool is_atomic);

  /// One member's post-time state inside Post: its fault draw, effect
  /// instant and audit ticket, sorted by effect before the effects run.
  struct PostMember {
    NetFault fault;
    SimTime effect = 0;
    uint64_t audit_ticket = 0;  ///< WRITEs only; 0 is a no-op to DropWrite
    size_t index = 0;
    bool bus_only = false;  ///< co-located READ/WRITE off the NIC
  };

  /// A multi-member post's member array, leased from the fabric's recycled
  /// pool on entry and handed back when the lease dies, on whatever path
  /// Post leaves by. The pool keeps at most kPooled arrays and frees the
  /// rest, so it holds no more than a few chains' worth of memory after a
  /// burst. Post's coroutine frame keeps one vector's footprint (an inline
  /// array made it larger, and every standalone verb slower).
  class MemberLease {
   public:
    /// Arrays the pool keeps for reuse.
    static constexpr size_t kPooled = 8;

    /// Leases nothing for n == 0 (a standalone verb).
    MemberLease(std::vector<std::vector<PostMember>>& pool, size_t n)
        : pool_(pool) {
      if (n == 0) return;
      if (!pool_.empty()) {
        members_ = std::move(pool_.back());
        pool_.pop_back();
      }
      members_.resize(n);
    }
    ~MemberLease() {
      // Nothing leased, or the pool is full: the array is freed here.
      if (members_.capacity() == 0 || pool_.size() >= kPooled) return;
      members_.clear();
      pool_.push_back(std::move(members_));
    }
    MemberLease(const MemberLease&) = delete;
    MemberLease& operator=(const MemberLease&) = delete;

    std::span<PostMember> span() { return members_; }

   private:
    std::vector<std::vector<PostMember>>& pool_;
    std::vector<PostMember> members_;
  };

  /// How one post is charged and resolved. The profile is data, picked by
  /// the entry point; its fields keep the historical differences between
  /// standalone verbs and chain members exactly (docs/simulator.md, "Verb
  /// pipeline", has the table).
  struct VerbProfile {
    /// READ/WRITE engine occupancy (atomics always pay atomic_engine_ns).
    SimTime FabricConfig::*engine_ns;
    /// Draws a network fault per member (the epoch probe draws none).
    bool net_faults;
    /// Takes an auditor chain id from next_chain_id_ (else reports 0).
    bool chained;
    /// kDropVerb reserves nothing and completes kLost after nic_post_ns +
    /// net_verb_timeout_ns, and an effect dropped at a dead server
    /// completes at once. Otherwise a dropped member still reserves its
    /// costs, drops at effect time (with an ordered chain's tail), and the
    /// chain completes on its usual schedule.
    bool drop_at_post;
    /// READ/WRITE responses are reserved at effect time, after a
    /// duplicate's second engine slot; co-located READ/WRITE ride the
    /// memory bus only (no NIC verb count, no duplicate) and complete at
    /// their effect; completion is not floored at the post time.
    /// Otherwise every leg is reserved at post and the chain completes at
    /// max(post time, each member's completion).
    bool respond_at_effect;
    /// A lost completion is counted and timed out from the effect;
    /// otherwise it is counted at post and timed out from the completion.
    bool lost_at_effect;
  };

  /// What a post reports to its entry point.
  struct VerbOutcome {
    VerbCompletion completion = VerbCompletion::kOk;
    /// The atomic pre-image or the epoch snapshot (1 = alive); 0 unless
    /// the post completed kOk.
    uint64_t value = 0;
    bool executed = false;     ///< ran through to a kOk completion
    bool target_dead = false;  ///< standalone: a dead target dropped it
  };

  /// The one-sided verb pipeline behind every entry point: posts `ops` (a
  /// chain, or one standalone verb) under `profile`, from the crash-point
  /// tick through fault draws, route-and-reserve, effects and completion.
  /// The calling front owns `ops` and awaits the post at once.
  sim::Task<VerbOutcome> Post(uint32_t client, std::span<ChainOp> ops,
                              VerbProfile profile);
  /// Standalone READ/WRITE/CAS/FAA, doorbell-chain members, and the
  /// liveness-registry probe.
  static const VerbProfile kSignaledProfile;
  static const VerbProfile kChainProfile;
  static const VerbProfile kEpochProfile;

  /// The request leg of one verb or SEND, as ReserveRequest charges it.
  struct RequestLeg {
    uint32_t local_bytes = 0;  ///< bytes over the co-located memory bus
    uint32_t wire_bytes = 0;   ///< bytes on the wire when remote
    SimTime engine_ns = 0;     ///< target engine occupancy
    /// The payload streams in (WRITE): the engine starts once its last
    /// byte has arrived, not its first.
    bool payload = false;
    /// Atomics serialize through the NIC engine even co-located (§4.2), so
    /// remote and local atomics stay mutually atomic.
    bool engine_when_local = false;
    SimTime extra_delay = 0;   ///< injected network delay
    SimTime floor = 0;         ///< ordered chains: the predecessor's effect
  };

  /// Route-and-reserve: charges `leg` from `client` to `server` over the
  /// memory bus (co-located) or the poster's tx port, the wire and the
  /// target's rx port and engine. Returns when the target executes it.
  SimTime ReserveRequest(uint32_t client, uint32_t server,
                         const RequestLeg& leg);

  /// A data response (READ payload, RPC reply) of `bytes` leaving
  /// `server` at `from` for `client` — over its tx port and the wire, or
  /// the memory bus when co-located; returns its arrival.
  SimTime ReserveResponse(uint32_t client, uint32_t server, SimTime from,
                          uint32_t bytes);

  /// The completion leg of one-sided `op`, executed at `effect`: the READ
  /// payload, the WRITE ack (sent only by a signaled tail) or the atomic's
  /// pre-image. Co-located verbs complete at their effect (atomics after
  /// the loopback). Returns when the completion reaches the poster.
  SimTime ReserveCompletion(uint32_t client, const ChainOp& op,
                            SimTime effect, bool signaled_tail);

  /// Applies `op`'s memory effect now (twice for a duplicated atomic) and
  /// reports it to the auditor. Returns the atomic pre-image, the epoch
  /// snapshot (1 = alive), or 0.
  uint64_t ApplyEffect(uint32_t client, const ChainOp& op, bool duplicated,
                       uint64_t audit_ticket, uint64_t chain_id);

  // ---- Pinned in-place images ---------------------------------------------
  // An open-addressed table of InPlaceImage pointers (Fibonacci hash, linear
  // probing, backward-shift erase, load factor <= 1/2), keyed by the 4 KiB
  // block of the region that holds the image's first byte. A write probes
  // the blocks that can hold the start of an image overlapping it, so the
  // write-side check is one branch while nothing is pinned.

  static constexpr uint32_t kImageBlockShift = 12;
  static uint64_t ImageBlock(uint32_t server, uint64_t offset) {
    return (static_cast<uint64_t>(server) + 1) << 44 |
           offset >> kImageBlockShift;
  }

  /// Pins `op.image` at `op.target` (the READ effect of an in-place
  /// member); a re-posted member is re-pinned.
  void PinImage(uint32_t client, const ChainOp& op);

  /// Copies out every pinned image overlapping [target, target + len)
  /// before a WRITE, CAS or FAA mutates those bytes.
  void BeforeMutate(RemotePtr target, uint32_t len) {
    if (pinned_images_ != 0) CopyOutPinned(target, len);
  }
  void CopyOutPinned(RemotePtr target, uint32_t len);

  uint32_t PinHome(uint64_t block) const {
    return static_cast<uint32_t>((block * 0x9E3779B97F4A7C15ull) >>
                                 pin_shift_);
  }
  /// Removes the image at table position `pos` (no tombstones).
  void UnpinAt(uint32_t pos);
  /// Removes `image`, which must be pinned.
  void Unpin(const InPlaceImage& image);
  void GrowPinTable();

  uint64_t region_capacity(uint32_t server) const {
    return memory_servers_[server].region->capacity();
  }

  /// Fails every pending RPC targeting `server` with kUnavailable (its
  /// workers will never respond) and tells the auditor the region is gone.
  void OnServerDeathNow(uint32_t server);

  /// Takes a free call slot (or grows the table) for attempt `call_id`.
  uint32_t AcquireCallSlot(uint64_t call_id, uint32_t server_id);
  void ReleaseCallSlot(uint32_t slot);

  sim::Simulator& simulator_;
  FabricConfig config_;
  /// Declared before every registered handle (and before auditor_, whose
  /// callbacks it holds) so handles unregister into a live registry.
  metrics::MetricRegistry metrics_;
  std::vector<MemoryServerEndpoint> memory_servers_;
  std::vector<std::unique_ptr<ComputeEndpoint>> compute_machines_;
  std::vector<std::unique_ptr<sim::Link>> local_bus_;
  uint32_t num_clients_ = 0;
  Rng jitter_rng_{0x9E3779B9};
  std::unique_ptr<VerbAuditor> auditor_;
  // Crash-fault state per client id: death time, crash point (earliest
  // after_verbs wins) and verb counter.
  std::vector<ClientFaults> clients_;
  // Memory-server fault domain: death times (sentinel = immortal),
  // effect-time verb counters, and per-server crash points (earliest
  // after_verbs wins; sentinel = none).
  std::vector<SimTime> server_death_time_;
  std::vector<uint64_t> server_verbs_executed_;
  std::vector<uint64_t> server_crash_after_;
  uint32_t replication_ = 1;
  // Network fault domain: cached enablement, dedicated RNG (seeded from
  // net_fault_seed; drawn only when faults are live), per-link overrides,
  // severed links (value = partition start time), and one consumed flag
  // per configured exact fault point.
  bool net_faults_configured_ = false;
  Rng net_rng_{0x51ED270Bu};
  std::map<std::pair<uint32_t, uint32_t>, FabricConfig::LinkFault>
      link_fault_overrides_;
  std::map<std::pair<uint32_t, uint32_t>, SimTime> partitioned_links_;
  std::vector<bool> verb_fault_consumed_;
  // The fabric-owned registry of in-flight RPCs: recycled slots (a deque,
  // so a parked caller's pointer stays valid as the table grows). A caller
  // that times out frees its slot, so a late Respond finds the slot free or
  // serving a later call id, never a dangling pointer.
  std::deque<PendingCall> call_slots_;
  std::vector<uint32_t> free_call_slots_;
  uint64_t next_call_id_ = 1;
  /// Exactly-once bookkeeping for two-sided calls under network faults. An
  /// entry is created when the first delivery of an rpc_id is admitted and
  /// holds the cached response once the handler replied; duplicates that
  /// arrive while the original is still executing park in `waiters` and are
  /// answered from the cache when it responds. Only populated while
  /// NetFaultsLive() (rpc_id stays 0 otherwise), so knobs-off runs never
  /// touch it.
  struct RpcDedupEntry {
    bool done = false;
    RpcResponse response;
    std::vector<IncomingRpc> waiters;
  };
  std::unordered_map<uint64_t, RpcDedupEntry> rpc_dedup_;
  uint64_t next_rpc_id_ = 1;
  /// Doorbell-chain ids handed to the auditor so a race report can name the
  /// chain both verbs rode in (0 = standalone verb).
  uint64_t next_chain_id_ = 1;
  /// Recycled member arrays of multi-member posts (MemberLease).
  std::vector<std::vector<PostMember>> member_pool_;
  /// Pinned in-place images (see PinImage); nullptr = empty bucket.
  std::vector<InPlaceImage*> pin_table_;
  uint32_t pin_mask_ = 0;
  uint32_t pin_shift_ = 64;
  size_t pinned_images_ = 0;
  /// Longest image ever pinned: bounds how far before a write an
  /// overlapping image can start.
  uint32_t max_image_len_ = 0;
  metrics::Counter inplace_served_;
  metrics::Counter inplace_copied_;
  // Registered in the constructor under the family names documented at
  // metrics(); ResetStats() zeroes the doorbell and signaled/unsignaled
  // counters, the rest run for the fabric's lifetime.
  metrics::Counter dropped_verbs_;
  metrics::Counter dropped_responses_;
  metrics::Counter rpc_timeouts_;
  metrics::Counter signaled_verbs_;
  metrics::Counter unsignaled_verbs_;
  metrics::Counter doorbells_;
  // Network-fault event families (never reset).
  metrics::Counter net_dropped_verbs_;
  metrics::Counter net_dropped_completions_;
  metrics::Counter net_duplicates_;
  metrics::Counter net_delayed_verbs_;
  metrics::Counter net_partitioned_drops_;
  metrics::Counter rpc_dedup_hits_;
  // RPC retry discipline (domain=rpc cells of the shared retry.* families;
  // ClientContext registers the lock/verb/steal cells).
  metrics::Counter rpc_retry_attempts_;
  metrics::Counter rpc_retry_exhausted_;
};

}  // namespace namtree::rdma

#endif  // NAMTREE_RDMA_FABRIC_H_
