#ifndef NAMTREE_RDMA_FABRIC_CONFIG_H_
#define NAMTREE_RDMA_FABRIC_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace namtree::rdma {

/// Cost model and topology of the simulated RDMA fabric.
///
/// Defaults are calibrated against the paper's testbed (Section 6 setup):
/// 8 machines, dual-port Mellanox Connect-IB on InfiniBand FDR 4x, two Intel
/// Xeon E5-2660v2 (10 cores each) per machine, 4 memory servers on 2
/// physical machines (one NIC port per memory server), up to 6 compute
/// machines with 40 closed-loop clients each. See DESIGN.md §2 for the
/// substitution argument and EXPERIMENTS.md for the calibration targets.
struct FabricConfig {
  // ---- Topology ---------------------------------------------------------
  uint32_t num_memory_servers = 4;
  /// Memory servers per physical machine; the second server on a machine
  /// pays the QPI penalty because the NIC hangs off socket 0 (paper §6.1).
  uint32_t memory_servers_per_machine = 2;
  /// Closed-loop client threads per compute machine (paper: 40).
  uint32_t clients_per_compute_machine = 40;
  /// Co-locate compute machine i with memory machine i (Appendix A.3).
  bool colocate = false;

  // ---- Network ----------------------------------------------------------
  /// Per-port capacity. FDR 4x effective payload bandwidth ~6.8 GB/s.
  double link_bandwidth_bytes_per_sec = 6.8e9;
  /// One-way wire + switch latency.
  SimTime wire_latency_ns = 1300;
  /// Initiator-side cost of posting a signaled verb (WQE + doorbell + CQ
  /// poll amortisation).
  SimTime nic_post_ns = 300;

  // ---- Target-NIC verb engine (one-sided) -------------------------------
  /// Occupancy of the target NIC's processing engine per *signaled*
  /// one-sided READ/WRITE (WQE fetch, QP state, PCIe DMA setup). This is
  /// what caps fine-grained point-query throughput per server.
  SimTime onesided_engine_ns = 1000;
  /// Occupancy per *unsignaled* batched READ/WRITE inside a doorbell
  /// chain (Fabric::PostChain; selectively-signaled prefetch via head
  /// nodes, §4.3, and the write+unlock / split chains): doorbell batching
  /// amortises most of the per-verb cost, so every chain member — the
  /// signaled tail included — is charged this instead of
  /// `onesided_engine_ns`. Chained atomics still pay `atomic_engine_ns`
  /// (the NIC-internal lock unit serialises them regardless of signaling).
  SimTime unsignaled_engine_ns = 120;
  /// Occupancy per RDMA atomic (CAS / FETCH_AND_ADD): a serialized
  /// read-modify-write through the NIC-internal lock unit.
  SimTime atomic_engine_ns = 1400;
  /// Occupancy per incoming two-sided SEND (RC to a posted SRQ receive).
  SimTime twosided_engine_ns = 400;

  // ---- Memory-server CPU (two-sided RPC handling) -----------------------
  /// RPC handler threads per memory server polling the SRQ.
  uint32_t workers_per_server = 4;
  /// Fixed handler cost per RPC: completion poll, dispatch, response post.
  SimTime rpc_fixed_ns = 2500;
  /// Handler cost to search one inner node (cache-cold binary search).
  SimTime cpu_inner_node_ns = 1100;
  /// Handler cost to search/scan one leaf node.
  SimTime cpu_leaf_node_ns = 3000;
  /// Extra handler cost for an insert (entry shift, lock handling).
  SimTime cpu_insert_extra_ns = 2000;
  /// Connection-state overhead added to each handled request per connected
  /// client (QP/SRQ bookkeeping grows with fan-in). Produces the gentle
  /// post-saturation decline of CG under very high load (Fig. 7a).
  double per_client_poll_ns = 8.0;
  /// Service-time multiplier for memory servers whose handler cores sit on
  /// the far socket (NIC attached to socket 0; paper §6.1 discussion).
  double qpi_penalty = 1.30;

  // ---- Local (co-located) access path ------------------------------------
  /// Base latency of a same-machine access that bypasses the wire.
  SimTime local_latency_ns = 250;
  /// Same-machine copy bandwidth (local memory bus).
  double local_bandwidth_bytes_per_sec = 25e9;

  // ---- Fault injection -----------------------------------------------------
  /// Multiplies every wire traversal by a random factor in
  /// [1, 1 + latency_jitter] (deterministic per seed; 0 disables). Used to
  /// stress protocol interleavings under pathological timing.
  double latency_jitter = 0;
  uint64_t jitter_seed = 0x9E3779B9;
  /// Per-server slowdown multipliers applied to NIC engine occupancy and
  /// handler CPU (straggler injection); empty = no slowdown.
  std::vector<double> server_slowdown;

  /// Schedule-exploration seed (sim::Simulator::ConfigureSchedule): 0 keeps
  /// the legacy FIFO tie-break among equal-timestamp simulator events —
  /// bit-identical to pre-exploration runs — while any other value
  /// deterministically permutes it, selecting an alternate but equally
  /// legal interleaving of the same workload. Driven by the
  /// ScheduleExplorer / `scripts/check.sh --explore N`.
  uint64_t schedule_seed = 0;
  /// Bounded delay injection: every scheduled simulator event is delayed
  /// by a seed-deterministic extra amount in [0, schedule_jitter_ns].
  /// 0 disables. Unlike latency_jitter (which only stretches wire hops),
  /// this perturbs *all* coroutine resumptions, including local ones.
  SimTime schedule_jitter_ns = 0;

  /// Deterministic crash-point: kill `client` once it has issued
  /// `after_verbs` verbs — the next verb (and everything after it) is
  /// dropped in flight and returns without a memory effect, exactly as if
  /// the compute process died between two verb postings. The verb counter
  /// includes one-sided verbs, RPC send attempts, and liveness-registry
  /// reads; a PostChain (and therefore a ReadBatch) counts as one verb —
  /// one doorbell. A client that dies while a chain is in flight loses the
  /// not-yet-executed tail of the chain atomically: verbs whose effect
  /// time has passed stay applied, everything after the death vanishes.
  struct CrashPoint {
    uint32_t client = 0;
    // namtree-lint: metric-ok(a configured threshold, not an event count)
    uint64_t after_verbs = 0;
  };
  /// Crash schedule evaluated by the fabric (empty = no crash injection).
  /// Multiple entries for one client take the earliest point.
  std::vector<CrashPoint> crash_points;

  /// Deterministic memory-server crash-point: kill server `server` once
  /// `after_verbs` verb effects have executed against it. Unlike client
  /// crash points (post-time), server crash points are evaluated at
  /// *effect* time per target server, so a threshold can land between two
  /// members of one doorbell chain — the member that trips it (and every
  /// later member aimed at the dead server) is dropped while members bound
  /// for live servers still land. RPC deliveries count as one effect.
  struct ServerCrashPoint {
    uint32_t server = 0;
    // namtree-lint: metric-ok(a configured threshold, not an event count)
    uint64_t after_verbs = 0;
  };
  /// Server crash schedule (empty = immortal storage, today's behavior).
  /// Multiple entries for one server take the earliest point.
  std::vector<ServerCrashPoint> server_crash_points;

  /// Page replication degree R (paper §3.1 / "The End of Slow Networks":
  /// the NAM separation exists so dumb memory servers can be replicated).
  /// 1 (default) = single copy, bit-identical to the unreplicated fabric.
  /// R > 1 splits each region's page area into R equal rank stripes;
  /// replica r of page (s, off) lives on server (s + r) % N at
  /// off + r * stripe — a pure address formula, no directory. Disciplined
  /// writers publish primary + backups in one doorbell chain; readers that
  /// find the primary's server dead promote the next live replica.
  uint32_t replication_factor = 1;

  // ---- Network fault injection (flaky fabric, docs/fault_model.md §8) -----
  /// Fleet-wide per-verb fault probabilities, applied to every
  /// (client, server) link that has no explicit `link_faults` override.
  /// A *dropped verb* never reaches the target NIC: no memory effect, the
  /// caller observes a lost completion. A *dropped completion* executes the
  /// memory effect but loses the acknowledgement — the ambiguity case the
  /// client must resolve by reading back protocol state. Duplication
  /// re-executes the verb at the NIC (retransmission after a lost ACK):
  /// harmless for READ and byte-idempotent WRITE, observable for atomics.
  /// All zero (default) = lossless fabric, bit-identical to pre-fault runs.
  double drop_prob = 0;
  double dup_prob = 0;
  /// Extra seed-deterministic delay in [0, delay_jitter_ns] added to a
  /// verb's wire traversal (delay spikes; distinct from `latency_jitter`,
  /// which stretches multiplicatively and draws from `jitter_seed`).
  SimTime delay_jitter_ns = 0;
  /// Seed of the dedicated network-fault RNG. Drawn only when fault
  /// injection is live, so knobs-off runs consume no randomness.
  uint64_t net_fault_seed = 0x51ED270Bu;
  /// How long a client waits on a verb whose completion never arrives
  /// before treating it as lost (RC retransmission budget). Only consulted
  /// when network faults are enabled.
  SimTime net_verb_timeout_ns = 50 * kMicrosecond;

  /// Per-(client, server) link override of the fleet-wide probabilities.
  struct LinkFault {
    uint32_t client = 0;
    uint32_t server = 0;
    double drop_prob = 0;
    double dup_prob = 0;
    SimTime delay_jitter_ns = 0;
  };
  std::vector<LinkFault> link_faults;

  /// Exact deterministic fault point: fault the verb that `client` posts
  /// once it has issued `after_verb` verbs (same post-order counter as
  /// CrashPoint::after_verbs). Exact points fire regardless of the
  /// probabilistic knobs and are consumed once each.
  struct VerbFaultPoint {
    enum class Kind : uint8_t {
      kDropVerb,        ///< verb lost before the NIC: no memory effect
      kDropCompletion,  ///< effect applied, acknowledgement lost
      kDuplicate,       ///< verb executed twice at the target NIC
    };
    uint32_t client = 0;
    // namtree-lint: metric-ok(a configured threshold, not an event count)
    uint64_t after_verb = 0;
    Kind kind = Kind::kDropVerb;
  };
  std::vector<VerbFaultPoint> verb_fault_points;

  /// True once any network-fault source is configured; gates every fault
  /// branch and RNG draw so knobs-off runs stay bit-identical.
  bool NetFaultsConfigured() const {
    if (drop_prob > 0 || dup_prob > 0 || delay_jitter_ns > 0) return true;
    if (!verb_fault_points.empty()) return true;
    for (const LinkFault& lf : link_faults) {
      if (lf.drop_prob > 0 || lf.dup_prob > 0 || lf.delay_jitter_ns > 0)
        return true;
    }
    return false;
  }

  // ---- Client-side protocol knobs ----------------------------------------
  /// Initial backoff before re-polling a locked remote node (remote
  /// spinlock). Consecutive re-polls back off exponentially (with jitter)
  /// up to `lock_backoff_max_ns`.
  SimTime lock_retry_ns = 1000;
  /// Cap of the exponential lock backoff.
  SimTime lock_backoff_max_ns = 8000;
  /// Lock lease: once a waiter has watched the *same* locked word for this
  /// long, it reads the holder's liveness from the fabric registry and, if
  /// the holder is dead, CAS-steals the lock (docs/fault_model.md). 0
  /// disables leases entirely — waiters then spin forever on an orphaned
  /// lock, which preserves the exact pre-crash-layer behavior for healthy
  /// runs. Crash-fault runs should set a lease.
  SimTime lock_lease_ns = 0;
  /// RPC deadline for Fabric::Call. 0 = wait forever (legacy behavior);
  /// > 0 = each attempt is abandoned after this long, resent up to
  /// `rpc_max_retries` times, and finally surfaced as kTimedOut.
  SimTime rpc_timeout_ns = 0;
  /// Resend attempts after the first RPC timeout (only with a timeout set).
  uint32_t rpc_max_retries = 2;

  // Derived helpers.
  uint32_t NumMemoryMachines() const {
    return (num_memory_servers + memory_servers_per_machine - 1) /
           memory_servers_per_machine;
  }
  /// Physical machine hosting memory server `s`.
  uint32_t MemoryServerMachine(uint32_t s) const {
    return s / memory_servers_per_machine;
  }
  /// True if memory server `s` pays the QPI crossing penalty.
  bool CrossesQpi(uint32_t s) const {
    return memory_servers_per_machine > 1 &&
           (s % memory_servers_per_machine) != 0;
  }
};

/// One bounded-retry discipline for every client-side loop that re-attempts
/// remote work: lock re-polls, RPC resends, dead-holder steal probes, and
/// lost-verb retries under network faults. Attempt rounds are numbered from
/// 0; BackoffFor(round, rng) reproduces the capped exponential backoff with
/// jitter that the lock spin loop has always used (same RNG draw shape, so
/// adopting the policy is bit-identical for existing paths).
struct RetryPolicy {
  /// Total attempts including the first (>= 1). Exhaustion surfaces as
  /// kTimedOut through the caller's status path.
  uint32_t max_attempts = 1;
  /// Backoff before attempt `round + 1`: base << round, jittered into
  /// [base/2, base), capped at max(base_backoff_ns, max_backoff_ns).
  /// 0 = retry immediately (the RPC resend discipline).
  SimTime base_backoff_ns = 0;
  SimTime max_backoff_ns = 0;
  /// Per-attempt deadline (0 = wait forever on each attempt).
  SimTime timeout_ns = 0;

  /// True once `attempts` completed attempts have used up the budget
  /// (max_attempts == 0 never exhausts).
  bool Exhausted(uint32_t attempts) const {
    return max_attempts != 0 && attempts >= max_attempts;
  }

  /// Capped exponential backoff with jitter for retry round `round`
  /// (0-based). `rng` needs NextDouble() in [0, 1). Always consumes exactly
  /// one draw — the historical spin loop did, and adopting the policy must
  /// not shift any client's RNG stream.
  template <typename Rng>
  SimTime BackoffFor(uint32_t round, Rng& rng) const {
    const uint64_t cap =
        std::max<uint64_t>(base_backoff_ns, max_backoff_ns);
    uint64_t base = static_cast<uint64_t>(base_backoff_ns)
                    << std::min<uint32_t>(round, 16);
    base = std::min(std::max<uint64_t>(base, 1), cap);
    const uint64_t half = base / 2;
    return static_cast<SimTime>(
        half + static_cast<uint64_t>(rng.NextDouble() *
                                     static_cast<double>(base - half)));
  }

  /// The remote-spinlock discipline: unbounded historically; bounded here
  /// by a generous attempt budget so a flaky link cannot wedge a descent.
  static RetryPolicy ForLocks(const FabricConfig& cfg) {
    RetryPolicy p;
    p.max_attempts = 0;  // 0 = unbounded spin (legacy lock behavior)
    p.base_backoff_ns = cfg.lock_retry_ns;
    p.max_backoff_ns = cfg.lock_backoff_max_ns;
    return p;
  }
  /// The RPC resend discipline: rpc_max_retries resends after the first
  /// attempt, no inter-attempt sleep, per-attempt deadline rpc_timeout_ns.
  static RetryPolicy ForRpc(const FabricConfig& cfg) {
    RetryPolicy p;
    p.max_attempts = cfg.rpc_timeout_ns > 0 ? cfg.rpc_max_retries + 1 : 1;
    p.timeout_ns = cfg.rpc_timeout_ns;
    return p;
  }
  /// The dead-holder steal-probe discipline: the liveness registry may be
  /// temporarily unreachable, so probes are bounded by the RPC retry knob
  /// (the historical `failed_probes > rpc_max_retries` bound), independent
  /// of the RPC deadline knob.
  static RetryPolicy ForSteal(const FabricConfig& cfg) {
    RetryPolicy p;
    p.max_attempts = cfg.rpc_max_retries + 1;
    return p;
  }
  /// Lost-verb attempt budget under network faults (ForVerbs, and
  /// RemoteOps::VerbPolicy when only runtime fault state — severed links —
  /// makes the fabric lossy).
  static constexpr uint32_t kNetVerbAttempts = 8;

  /// Lost one-sided verbs under network faults: bounded re-post with the
  /// lock backoff curve (shares the knobs; faults and locks contend on the
  /// same links).
  static RetryPolicy ForVerbs(const FabricConfig& cfg) {
    RetryPolicy p;
    p.max_attempts = cfg.NetFaultsConfigured() ? kNetVerbAttempts : 1;
    p.base_backoff_ns = cfg.lock_retry_ns;
    p.max_backoff_ns = cfg.lock_backoff_max_ns;
    p.timeout_ns = cfg.net_verb_timeout_ns;
    return p;
  }
};

}  // namespace namtree::rdma

#endif  // NAMTREE_RDMA_FABRIC_CONFIG_H_
