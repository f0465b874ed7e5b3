#include "rdma/fabric.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>

namespace namtree::rdma {

namespace {

// Modeled wire sizes of verb envelopes (request headers, acks).
constexpr uint32_t kReadRequestBytes = 16;
constexpr uint32_t kWriteHeaderBytes = 16;
constexpr uint32_t kAtomicRequestBytes = 32;
constexpr uint32_t kAtomicResponseBytes = 16;
constexpr uint32_t kAckBytes = 8;
constexpr uint32_t kEpochBytes = 8;

// An RPC reply carrying only a failure status.
RpcResponse FailedRpc(StatusCode code) {
  RpcResponse response;
  response.status = static_cast<uint16_t>(code);
  return response;
}

/// Suite-wide schedule-exploration override: NAMTREE_SCHEDULE_SEED replays
/// every fabric built by the process under the given schedule seed without
/// touching each construction site. An explicit FabricConfig::schedule_seed
/// wins over the environment. Driven by `scripts/check.sh --explore N` and
/// the CI schedule-exploration matrix.
uint64_t EnvScheduleSeed() {
  const char* value = std::getenv("NAMTREE_SCHEDULE_SEED");
  return value == nullptr ? 0 : std::strtoull(value, nullptr, 10);
}

/// Stable insertion sort of a post's members by effect time. Chains are
/// short and nearly in order, and std::stable_sort would allocate a buffer.
/// A plain function, so its temporaries stay out of Post's coroutine frame.
template <typename Member>
void SortByEffect(std::span<Member> members) {
  for (size_t i = 1; i < members.size(); ++i) {
    const Member m = members[i];
    size_t j = i;
    for (; j > 0 && m.effect < members[j - 1].effect; --j) {
      members[j] = members[j - 1];
    }
    members[j] = m;
  }
}

}  // namespace

Fabric::Fabric(sim::Simulator& simulator, const FabricConfig& config)
    : simulator_(simulator), config_(config), jitter_rng_(config.jitter_seed) {
  if (config_.schedule_seed == 0) config_.schedule_seed = EnvScheduleSeed();
  if (config_.schedule_seed != 0 || config_.schedule_jitter_ns != 0) {
    simulator_.ConfigureSchedule(config_.schedule_seed,
                                 config_.schedule_jitter_ns);
  }
#if NAMTREE_AUDIT
  auditor_ = std::make_unique<VerbAuditor>();
  auditor_->SetLivenessProbe(
      [this](uint32_t client) { return ClientAlive(client); });
#endif
  for (const FabricConfig::CrashPoint& cp : config_.crash_points) {
    uint64_t& after = FaultsFor(cp.client).crash_after;
    after = std::min(after, cp.after_verbs);
  }
  server_death_time_.assign(config_.num_memory_servers,
                            std::numeric_limits<SimTime>::max());
  server_verbs_executed_.assign(config_.num_memory_servers, 0);
  server_crash_after_.assign(config_.num_memory_servers,
                             std::numeric_limits<uint64_t>::max());
  for (const FabricConfig::ServerCrashPoint& cp :
       config_.server_crash_points) {
    // A crash point for a server the fabric does not have never fires.
    if (cp.server >= config_.num_memory_servers) continue;
    uint64_t& after = server_crash_after_[cp.server];
    after = std::min(after, cp.after_verbs);
  }
  net_faults_configured_ = config_.NetFaultsConfigured();
  net_rng_.Seed(config_.net_fault_seed);
  for (const FabricConfig::LinkFault& lf : config_.link_faults) {
    link_fault_overrides_[{lf.client, lf.server}] = lf;
  }
  verb_fault_consumed_.assign(config_.verb_fault_points.size(), false);
  replication_ = std::max<uint32_t>(
      1, std::min(config_.replication_factor, config_.num_memory_servers));
  memory_servers_.reserve(config_.num_memory_servers);
  for (uint32_t s = 0; s < config_.num_memory_servers; ++s) {
    memory_servers_.emplace_back(simulator_,
                                 config_.link_bandwidth_bytes_per_sec);
  }
  local_bus_.resize(config_.NumMemoryMachines());
  for (auto& bus : local_bus_) {
    bus = std::make_unique<sim::Link>(config_.local_bandwidth_bytes_per_sec);
  }

  metrics_.RegisterCounter(signaled_verbs_, "fabric.signaled_verbs", {},
                           "verbs posted with a signaled completion");
  metrics_.RegisterCounter(unsignaled_verbs_, "fabric.unsignaled_verbs", {},
                           "chain members riding a doorbell unsignaled");
  metrics_.RegisterCounter(doorbells_, "fabric.doorbells",
                           {}, "doorbell rings (one per verb or chain)");
  metrics_.RegisterCounter(dropped_verbs_, "fabric.dropped_verbs", {},
                           "verbs dropped at post or effect time");
  metrics_.RegisterCounter(dropped_responses_, "fabric.dropped_responses",
                           {}, "RPC responses with no waiting caller");
  metrics_.RegisterCounter(rpc_timeouts_, "fabric.rpc_timeouts", {},
                           "RPC attempts abandoned at the deadline");
  metrics_.RegisterCounter(net_dropped_verbs_, "fabric.net.dropped_verbs", {},
                           "verbs lost before the target NIC (no effect)");
  metrics_.RegisterCounter(net_dropped_completions_,
                           "fabric.net.dropped_completions", {},
                           "verbs whose effect applied but whose ack was lost");
  metrics_.RegisterCounter(net_duplicates_, "fabric.net.duplicates", {},
                           "verbs re-executed at the target NIC");
  metrics_.RegisterCounter(net_delayed_verbs_, "fabric.net.delayed_verbs", {},
                           "verbs stretched by injected delay jitter");
  metrics_.RegisterCounter(net_partitioned_drops_,
                           "fabric.net.partitioned_drops", {},
                           "verbs dropped on a severed (client, server) link");
  metrics_.RegisterCounter(
      rpc_dedup_hits_, "fabric.net.rpc_dedup_hits", {},
      "retransmitted RPCs answered from the dedup cache (not re-executed)");
  metrics_.RegisterCounter(inplace_served_, "fabric.inplace_images",
                           {{"outcome", "served"}},
                           "in-place READ images by outcome");
  metrics_.RegisterCounter(inplace_copied_, "fabric.inplace_images",
                           {{"outcome", "copied"}},
                           "in-place READ images by outcome");
  metrics_.RegisterCounter(rpc_retry_attempts_, "retry.attempts",
                           {{"domain", "rpc"}},
                           "re-attempts after a failed try, by retry domain");
  metrics_.RegisterCounter(rpc_retry_exhausted_, "retry.exhausted",
                           {{"domain", "rpc"}},
                           "retry budgets used up, by retry domain");
  for (uint32_t s = 0; s < config_.num_memory_servers; ++s) {
    metrics_.RegisterCallback(
        "server.bytes",
        [this, s] {
          const ServerStats stats = server_stats(s);
          return stats.tx_bytes + stats.rx_bytes;
        },
        {{"server", std::to_string(s)}},
        "per-server tx+rx bytes since the last reset");
  }
#if NAMTREE_AUDIT
  auditor_->BindMetrics(&metrics_);
#endif
}

void Fabric::RegisterRegion(uint32_t server_id, MemoryRegion* region) {
  assert(server_id < memory_servers_.size());
  memory_servers_[server_id].region = region;
  if (replicated()) {
    // Primary allocations stay inside the region's rank-0 stripe; the
    // stripes above it hold backups of the R-1 preceding servers.
    region->set_alloc_limit(MemoryRegion::kHeaderSize +
                            ReplicaStripeBytes(server_id));
  }
}

void Fabric::SetNumClients(uint32_t n) {
  num_clients_ = n;
  const uint32_t machines =
      (n + config_.clients_per_compute_machine - 1) /
      config_.clients_per_compute_machine;
  while (compute_machines_.size() < machines) {
    compute_machines_.push_back(std::make_unique<ComputeEndpoint>(
        config_.link_bandwidth_bytes_per_sec));
  }
}

Fabric::ComputeEndpoint& Fabric::ComputeFor(uint32_t client) {
  const uint32_t machine = ClientMachine(client);
  while (compute_machines_.size() <= machine) {
    compute_machines_.push_back(std::make_unique<ComputeEndpoint>(
        config_.link_bandwidth_bytes_per_sec));
  }
  return *compute_machines_[machine];
}

void Fabric::KillClient(uint32_t client, SimTime at_time) {
  const SimTime t = std::max(at_time, simulator_.now());
  SimTime& death = FaultsFor(client).death_time;
  death = std::min(death, t);
}

void Fabric::KillServer(uint32_t server, SimTime at_time) {
  assert(server < server_death_time_.size());
  const SimTime t = std::max(at_time, simulator_.now());
  if (t < server_death_time_[server]) server_death_time_[server] = t;
  // An immediate kill settles its fallout now; a scheduled future kill is
  // settled lazily by the first drop site that observes the death (and
  // callers already waiting on its workers by the RPC timeout machinery).
  if (t <= simulator_.now()) OnServerDeathNow(server);
}

void Fabric::OnServerDeathNow(uint32_t server) {
  if (auditor_) auditor_->OnServerDeath(server);
  // Fail callers parked on this server's workers: no response will ever
  // come. Entries already responded (done set, reply SEND in flight) keep
  // their response — it left the NIC before the death.
  // They wake at one instant, so the order they are failed in is their
  // order of resumption: call-id order, not the slot table's order.
  std::vector<PendingCall*> parked;
  for (PendingCall& pending : call_slots_) {
    if (pending.call_id != 0 && pending.server_id == server &&
        !pending.done.is_set()) {
      parked.push_back(&pending);
    }
  }
  std::sort(parked.begin(), parked.end(),
            [](const PendingCall* a, const PendingCall* b) {
              return a->call_id < b->call_id;
            });
  for (PendingCall* pending : parked) {
    pending->response = FailedRpc(StatusCode::kUnavailable);
    pending->deliver_at = simulator_.now();
    pending->done.Set();
  }
}

bool Fabric::ServerVerbExecutes(uint32_t server) {
  if (!ServerAlive(server)) {
    // First drop site after a scheduled death settles the fallout.
    OnServerDeathNow(server);
    return false;
  }
  if (server_verbs_executed_[server]++ >= server_crash_after_[server]) {
    // The crash point fires on this verb effect: the server dies with the
    // verb on its NIC, so the effect never reaches memory.
    KillServer(server, simulator_.now());
    return false;
  }
  return true;
}

void Fabric::SyncReplicasFromPrimaries() {
  if (!replicated()) return;
  for (uint32_t s = 0; s < config_.num_memory_servers; ++s) {
    MemoryRegion* region = memory_servers_[s].region;
    if (region == nullptr) continue;
    const uint64_t cursor = region->allocated();
    if (cursor <= MemoryRegion::kHeaderSize) continue;
    const uint64_t bytes = cursor - MemoryRegion::kHeaderSize;
    for (uint32_t r = 1; r < replication_; ++r) {
      const RemotePtr dst = ReplicaPtr(
          RemotePtr::Make(s, MemoryRegion::kHeaderSize), r);
      MemoryRegion* backup = memory_servers_[dst.server_id()].region;
      assert(backup != nullptr && backup->Contains(dst.offset(), bytes));
      std::memcpy(backup->at(dst.offset()),
                  region->at(MemoryRegion::kHeaderSize), bytes);
    }
  }
}

bool Fabric::CountVerbAndCheckAlive(uint32_t client) {
  ClientFaults& faults = FaultsFor(client);
  if (simulator_.now() >= faults.death_time) return false;
  if (faults.verbs_posted++ >= faults.crash_after) {
    // The crash point fires on this verb: the client dies while posting
    // it, so the verb never leaves the local NIC.
    KillClient(client, simulator_.now());
    return false;
  }
  return true;
}

void Fabric::PartitionLink(uint32_t client, uint32_t server, SimTime at_time) {
  const SimTime t = std::max(at_time, simulator_.now());
  auto [it, inserted] = partitioned_links_.emplace(
      std::make_pair(client, server), t);
  if (!inserted) it->second = std::min(it->second, t);
}

void Fabric::HealLink(uint32_t client, uint32_t server) {
  partitioned_links_.erase(std::make_pair(client, server));
}

bool Fabric::LinkPartitioned(uint32_t client, uint32_t server) const {
  auto it = partitioned_links_.find(std::make_pair(client, server));
  return it != partitioned_links_.end() && simulator_.now() >= it->second;
}

Fabric::NetFault Fabric::DrawNetFault(uint32_t client, uint32_t server,
                                      bool is_atomic) {
  NetFault fault;
  // Exact fault points win: matched against the same post-order verb
  // counter that crash points use (CountVerbAndCheckAlive has already
  // ticked it for the current verb), consumed once each, no RNG draw.
  if (!config_.verb_fault_points.empty()) {
    const uint64_t index = clients_[client].verbs_posted - 1;
    for (size_t i = 0; i < config_.verb_fault_points.size(); ++i) {
      if (verb_fault_consumed_[i]) continue;
      const FabricConfig::VerbFaultPoint& fp = config_.verb_fault_points[i];
      if (fp.client != client || index < fp.after_verb) continue;
      verb_fault_consumed_[i] = true;
      switch (fp.kind) {
        case FabricConfig::VerbFaultPoint::Kind::kDropVerb:
          fault.kind = NetFaultKind::kDropVerb;
          break;
        case FabricConfig::VerbFaultPoint::Kind::kDropCompletion:
          fault.kind = NetFaultKind::kDropCompletion;
          break;
        case FabricConfig::VerbFaultPoint::Kind::kDuplicate:
          fault.kind = NetFaultKind::kDuplicate;
          break;
      }
      return fault;
    }
  }
  // A severed link eats every verb before the target NIC.
  if (LinkPartitioned(client, server)) {
    fault.kind = NetFaultKind::kDropVerb;
    fault.partitioned = true;
    return fault;
  }
  double drop = config_.drop_prob;
  double dup = config_.dup_prob;
  SimTime jitter = config_.delay_jitter_ns;
  if (!link_fault_overrides_.empty()) {
    auto it = link_fault_overrides_.find(std::make_pair(client, server));
    if (it != link_fault_overrides_.end()) {
      drop = it->second.drop_prob;
      dup = it->second.dup_prob;
      jitter = it->second.delay_jitter_ns;
    }
  }
  if (jitter > 0) {
    fault.extra_delay = static_cast<SimTime>(
        net_rng_.NextDouble() * static_cast<double>(jitter));
  }
  if (drop > 0 || dup > 0) {
    const double draw = net_rng_.NextDouble();
    if (draw < drop) {
      // A loss is equally likely to hit the request (no effect) or the
      // acknowledgement (effect applied, completion lost — the ambiguity).
      fault.kind = net_rng_.NextBool(0.5) ? NetFaultKind::kDropCompletion
                                          : NetFaultKind::kDropVerb;
    } else if (draw < drop + dup) {
      // RC NICs answer retransmitted atomics from the response cache
      // (exactly-once); random duplication therefore skips atomics, and
      // only an exact fault point can force one for auditor tests.
      if (!is_atomic) fault.kind = NetFaultKind::kDuplicate;
    }
  }
  return fault;
}

const Fabric::VerbProfile Fabric::kSignaledProfile{
    .engine_ns = &FabricConfig::onesided_engine_ns,
    .net_faults = true,
    .chained = false,
    .drop_at_post = true,
    .respond_at_effect = true,
    .lost_at_effect = true,
};
const Fabric::VerbProfile Fabric::kChainProfile{
    .engine_ns = &FabricConfig::unsignaled_engine_ns,
    .net_faults = true,
    .chained = true,
    .drop_at_post = false,
    .respond_at_effect = false,
    .lost_at_effect = false,
};
const Fabric::VerbProfile Fabric::kEpochProfile{
    .engine_ns = &FabricConfig::onesided_engine_ns,
    .net_faults = false,
    .chained = false,
    .drop_at_post = true,
    .respond_at_effect = true,
    .lost_at_effect = true,
};

uint8_t* Fabric::TargetAddress(RemotePtr ptr, uint32_t len) {
  assert(!ptr.is_null());
  MemoryServerEndpoint& ep = memory_servers_[ptr.server_id()];
  assert(ep.region != nullptr && "verb against unregistered region");
  assert(ep.region->Contains(ptr.offset(), len));
  (void)len;
  return ep.region->at(ptr.offset());
}

void Fabric::PrefetchSource(const ChainOp& op) const {
  const MemoryRegion* region = memory_servers_[op.target.server_id()].region;
  if (region == nullptr || !region->Contains(op.target.offset(), op.len)) {
    return;  // the effect event reports it, if the READ ever executes
  }
  const uint8_t* src = region->at(op.target.offset());
  for (uint32_t off = 0; off < op.len; off += 64) __builtin_prefetch(src + off);
}

SimTime Fabric::ReserveRequest(uint32_t client, uint32_t server_id,
                               const RequestLeg& leg) {
  MemoryServerEndpoint& server = memory_servers_[server_id];
  if (IsLocal(client, server_id)) {
    // Co-located: the machine-local memory bus replaces post, wire, ports.
    const SimTime moved =
        LocalBus(config_.MemoryServerMachine(server_id))
            .ReserveTransfer(std::max(simulator_.now() +
                                          config_.local_latency_ns,
                                      leg.floor),
                             leg.local_bytes);
    return leg.engine_when_local
               ? server.engine.ReserveOccupancy(moved, leg.engine_ns)
               : moved;
  }
  // Stage boundaries (docs/simulator.md, "Verb pipeline"): t_post,
  // t_req_out, t_arrive, and the returned t_effect.
  sim::Link& tx = ComputeFor(client).tx;
  const SimTime t_post = simulator_.now() + config_.nic_post_ns;
  const SimTime t_req_out = tx.ReserveTransfer(t_post, leg.wire_bytes);
  SimTime t_arrive;
  if (leg.payload) {
    const SimTime first_byte = t_req_out -
                               tx.TransferDuration(leg.wire_bytes) +
                               WireLatency() + leg.extra_delay;
    t_arrive = std::max(server.rx.ReserveArrival(first_byte, leg.wire_bytes),
                        leg.floor);
  } else {
    t_arrive =
        std::max(t_req_out + WireLatency() + leg.extra_delay, leg.floor);
    server.rx.ReserveArrival(t_arrive - 1, leg.wire_bytes);
  }
  return server.engine.ReserveOccupancy(t_arrive, leg.engine_ns);
}

SimTime Fabric::ReserveResponse(uint32_t client, uint32_t server_id,
                                SimTime from, uint32_t bytes) {
  if (IsLocal(client, server_id)) {
    return LocalBus(config_.MemoryServerMachine(server_id))
        .ReserveTransfer(from + config_.local_latency_ns, bytes);
  }
  sim::Link& tx = memory_servers_[server_id].tx;
  const SimTime t_out = tx.ReserveTransfer(from, bytes);
  const SimTime first_byte =
      t_out - tx.TransferDuration(bytes) + WireLatency();
  return ComputeFor(client).rx.ReserveArrival(first_byte, bytes);
}

SimTime Fabric::ReserveCompletion(uint32_t client, const ChainOp& op,
                                  SimTime effect, bool signaled_tail) {
  const uint32_t sid = op.target.server_id();
  if (IsLocal(client, sid)) {
    return op.atomic() ? effect + config_.local_latency_ns : effect;
  }
  switch (op.kind) {
    case ChainOp::Kind::kWrite:
      // Only the signaled tail acks back to the initiator; the acks of
      // unsignaled members coalesce into it.
      if (signaled_tail) {
        memory_servers_[sid].tx.ReserveTransfer(effect, kAckBytes);
      }
      return effect + WireLatency();
    case ChainOp::Kind::kCas:
    case ChainOp::Kind::kFaa:
      memory_servers_[sid].tx.ReserveTransfer(effect, kAtomicResponseBytes);
      return ComputeFor(client).rx.ReserveArrival(effect + WireLatency(),
                                                  kAtomicResponseBytes);
    case ChainOp::Kind::kRead:
    case ChainOp::Kind::kEpoch:
      break;
  }
  return ReserveResponse(client, sid, effect, op.len);
}

uint64_t Fabric::ApplyEffect(uint32_t client, const ChainOp& op,
                             bool duplicated, uint64_t audit_ticket,
                             uint64_t chain_id) {
  const SimTime now = simulator_.now();
  switch (op.kind) {
    case ChainOp::Kind::kRead:
      if (auditor_) {
        auditor_->OnReadEffect(client, op.target, op.len, now, chain_id);
      }
      if (op.image != nullptr) {
        PinImage(client, op);
      } else {
        std::memcpy(op.dst, TargetAddress(op.target, op.len), op.len);
      }
      return 0;
    case ChainOp::Kind::kWrite:
      // A duplicated WRITE lands the same bytes again: byte-idempotent,
      // so no second auditor effect (the sanctioned duplicate).
      if (auditor_) auditor_->OnWriteEffect(audit_ticket, op.src, now);
      BeforeMutate(op.target, op.len);
      std::memcpy(TargetAddress(op.target, op.len), op.src, op.len);
      return 0;
    case ChainOp::Kind::kEpoch:
      return ClientAlive(op.subject) ? 1 : 0;
    case ChainOp::Kind::kCas:
    case ChainOp::Kind::kFaa:
      break;
  }
  // A forced atomic duplicate (exact fault point only) executes twice. CAS
  // duplication is self-neutralising — after a successful first swap the
  // word no longer matches `expected` — and only the first execution is
  // reported. FAA is NOT idempotent: it adds again, and the second effect
  // is reported as its own event so an unsanctioned duplicate trips the
  // auditor (a duplicated release is kUnlockWithoutLock).
  uint8_t* word = TargetAddress(op.target, 8);
  uint64_t pre_image = 0;
  for (int pass = 0; pass < (duplicated ? 2 : 1); ++pass) {
    uint64_t current;
    std::memcpy(&current, word, 8);
    if (pass == 0) pre_image = current;
    if (op.kind == ChainOp::Kind::kCas) {
      if (current == op.expected) {
        BeforeMutate(op.target, 8);
        std::memcpy(word, &op.desired, 8);
      }
      if (auditor_ && pass == 0) {
        auditor_->OnCasEffect(client, op.target, op.expected, op.desired,
                              current, now, chain_id);
      }
    } else {
      const uint64_t updated = current + op.desired;
      BeforeMutate(op.target, 8);
      std::memcpy(word, &updated, 8);
      if (auditor_) {
        auditor_->OnFaaEffect(client, op.target, op.desired, current, now,
                              chain_id);
      }
    }
  }
  if (op.result != nullptr) *op.result = pre_image;
  return pre_image;
}

void Fabric::PinImage(uint32_t client, const ChainOp& op) {
  InPlaceImage& image = *op.image;
  if (image.pinned_) Unpin(image);  // a re-posted batch re-pins
  image.data_ = TargetAddress(op.target, op.len);
  image.buffer_ = static_cast<uint8_t*>(op.dst);
  image.target_ = op.target;
  image.len_ = op.len;
  image.block_ = ImageBlock(op.target.server_id(), op.target.offset());
  image.pinned_ = true;
  max_image_len_ = std::max(max_image_len_, op.len);
  if (2 * (pinned_images_ + 1) > pin_table_.size()) GrowPinTable();
  uint32_t pos = PinHome(image.block_);
  while (pin_table_[pos] != nullptr) pos = (pos + 1) & pin_mask_;
  pin_table_[pos] = &image;
  pinned_images_++;
  if (auditor_) {
    auditor_->OnImagePinned(&image, client, op.target, image.data_, op.len);
  }
}

void Fabric::CopyOutPinned(RemotePtr target, uint32_t len) {
  if (len == 0) return;
  // An image overlapping [lo, hi) starts after lo - max_image_len_, so only
  // the blocks from there through hi - 1 can index one.
  const uint32_t server = target.server_id();
  const uint64_t lo = target.offset();
  const uint64_t hi = lo + len;
  const uint64_t first = lo >= max_image_len_ ? lo - max_image_len_ + 1 : 0;
  for (uint64_t block = first >> kImageBlockShift;
       block <= (hi - 1) >> kImageBlockShift; ++block) {
    const uint64_t key = ImageBlock(server, block << kImageBlockShift);
    uint32_t pos = PinHome(key);
    while (pin_table_[pos] != nullptr) {
      InPlaceImage& image = *pin_table_[pos];
      const uint64_t start = image.target_.offset();
      if (image.block_ != key || start >= hi || start + image.len_ <= lo) {
        pos = (pos + 1) & pin_mask_;
        continue;
      }
      std::memcpy(image.buffer_, image.data_, image.len_);
      image.data_ = image.buffer_;
      image.pinned_ = false;
      inplace_copied_.Inc();
      // The backward shift refills `pos` from later in the run (or empties
      // it): examine it again.
      UnpinAt(pos);
    }
  }
}

void Fabric::UnpinAt(uint32_t pos) {
  pinned_images_--;
  uint32_t hole = pos;
  for (uint32_t i = (hole + 1) & pin_mask_; pin_table_[i] != nullptr;
       i = (i + 1) & pin_mask_) {
    // Entry i may fill the hole unless its home lies in (hole, i].
    const uint32_t home = PinHome(pin_table_[i]->block_);
    if (((i - home) & pin_mask_) >= ((i - hole) & pin_mask_)) {
      pin_table_[hole] = pin_table_[i];
      hole = i;
    }
  }
  pin_table_[hole] = nullptr;
}

void Fabric::Unpin(const InPlaceImage& image) {
  uint32_t pos = PinHome(image.block_);
  while (pin_table_[pos] != &image) pos = (pos + 1) & pin_mask_;
  UnpinAt(pos);
}

void Fabric::GrowPinTable() {
  std::vector<InPlaceImage*> old = std::move(pin_table_);
  const size_t buckets = old.empty() ? 64 : 2 * old.size();
  pin_table_.assign(buckets, nullptr);
  pin_mask_ = static_cast<uint32_t>(buckets - 1);
  pin_shift_ = 64 - __builtin_ctzll(buckets);
  for (InPlaceImage* image : old) {
    if (image == nullptr) continue;
    uint32_t pos = PinHome(image->block_);
    while (pin_table_[pos] != nullptr) pos = (pos + 1) & pin_mask_;
    pin_table_[pos] = image;
  }
}

void Fabric::ReleaseImages(std::span<InPlaceImage> images) {
  for (InPlaceImage& image : images) {
    if (image.data_ == nullptr) continue;
    if (auditor_) {
      auditor_->OnImageReleased(&image, image.data_, simulator_.now());
    }
    if (image.pinned_) {
      Unpin(image);
      image.pinned_ = false;
      inplace_served_.Inc();
    }
    image.data_ = nullptr;
  }
}

sim::Task<Fabric::VerbOutcome> Fabric::Post(uint32_t client,
                                             std::span<ChainOp> ops,
                                             VerbProfile profile) {
  if (ops.empty()) co_return VerbOutcome{};
  // One doorbell, one crash-point tick for the whole post.
  if (!CountVerbAndCheckAlive(client)) {
    // Dead client: the post never leaves the NIC. Charging the post cost
    // keeps virtual time moving for any coroutine still driving verbs; a
    // dead caller observes nothing anyway.
    dropped_verbs_.Inc();
    co_await sim::Delay(simulator_, config_.nic_post_ns);
    co_return VerbOutcome{};
  }
  if (ops[0].kind == ChainOp::Kind::kEpoch) {
    // The registry record of `subject` lives on server subject % N; under
    // replication its replica group is consulted in rank order so the
    // probe survives the home server's death.
    const uint32_t servers = config_.num_memory_servers;
    const uint32_t home = ops[0].subject % servers;
    uint32_t rank = 0;
    while (rank < replication_ && !ServerAlive((home + rank) % servers)) {
      ++rank;
    }
    if (rank == replication_) {
      // Every host of the record is gone: the post errs out locally.
      co_await sim::Delay(simulator_, config_.nic_post_ns);
      co_return VerbOutcome{.target_dead = true};
    }
    ops[0].target = RemotePtr::Make((home + rank) % servers, 0);
  }
  doorbells_.Inc();
  signaled_verbs_.Inc();  // the tail carries the post's only completion
  unsignaled_verbs_.Inc(ops.size() - 1);
  const uint64_t chain_id = profile.chained ? next_chain_id_++ : 0;
  // A READ-only chain (head-node prefetch) has independent members; any
  // other member makes it ordered — each member's effect waits for its
  // predecessor, as the initiating NIC streams WQEs in posting order.
  const bool ordered =
      std::any_of(ops.begin(), ops.end(), [](const ChainOp& op) {
        return op.kind != ChainOp::Kind::kRead;
      });

  // A standalone verb keeps its one member in the frame; a chain leases a
  // recycled array. Neither allocates once the pool is warm.
  PostMember first;
  MemberLease rest(member_pool_, ops.size() > 1 ? ops.size() : 0);
  const std::span<PostMember> members =
      ops.size() > 1 ? rest.span() : std::span<PostMember>(&first, 1);

  // Draw, route and reserve every member at post time. A chain completes
  // no earlier than its post; a standalone verb when its completion
  // arrives. Network faults hit members individually (an exact fault point
  // matching the post's verb index lands on its first member). The first
  // member lost before the NIC also kills the not-yet-posted tail of an
  // ordered chain — the initiating NIC stops streaming WQEs past a faulted
  // one — and any loss (member or the signaled tail's ack) surfaces as a
  // kLost completion.
  size_t net_drop_from = ops.size();
  bool completion_lost = false;
  SimTime done =
      profile.respond_at_effect ? 0 : simulator_.now() + config_.nic_post_ns;
  SimTime prev_effect = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const ChainOp& op = ops[i];
    PostMember& m = members[i];
    m.index = i;
    const uint32_t sid = op.target.server_id();
    if (profile.net_faults && NetFaultsLive()) {
      m.fault = DrawNetFault(client, sid, op.atomic());
      if (m.fault.kind == NetFaultKind::kDropVerb) {
        if (profile.drop_at_post) {
          // Lost before the target NIC: no memory effect, no completion.
          // The caller's NIC gives up after the retransmission budget.
          (m.fault.partitioned ? net_partitioned_drops_ : net_dropped_verbs_)
              .Inc();
          co_await sim::Delay(simulator_, config_.nic_post_ns +
                                              config_.net_verb_timeout_ns);
          co_return VerbOutcome{.completion = VerbCompletion::kLost};
        }
        if (ordered) net_drop_from = std::min(net_drop_from, i);
        completion_lost = true;
      } else if (m.fault.kind == NetFaultKind::kDropCompletion) {
        completion_lost = true;
        if (!profile.lost_at_effect) net_dropped_completions_.Inc();
      }
      if (m.fault.extra_delay > 0) net_delayed_verbs_.Inc();
    }
    MemoryServerEndpoint& server = memory_servers_[sid];
    m.bus_only =
        profile.respond_at_effect && !op.atomic() && IsLocal(client, sid);
    if (op.kind == ChainOp::Kind::kWrite && auditor_) {
      m.audit_ticket = auditor_->OnWritePosted(client, op.target, op.len,
                                               simulator_.now(), chain_id);
    }
    RequestLeg leg;
    leg.engine_ns = op.atomic() ? config_.atomic_engine_ns
                                : EngineCost(sid, config_.*profile.engine_ns);
    leg.extra_delay = m.fault.extra_delay;
    leg.floor = ordered ? prev_effect : 0;
    if (op.atomic()) {
      leg.local_bytes = leg.wire_bytes = kAtomicRequestBytes;
      leg.engine_when_local = true;
    } else if (op.kind == ChainOp::Kind::kWrite) {
      leg.local_bytes = op.len;
      leg.wire_bytes = op.len + kWriteHeaderBytes;
      leg.payload = true;
    } else {
      leg.local_bytes = op.len;
      leg.wire_bytes = kReadRequestBytes;
      if (op.kind == ChainOp::Kind::kRead) PrefetchSource(op);
    }
    m.effect = ReserveRequest(client, sid, leg);
    if (op.atomic() || !profile.respond_at_effect) {
      done = std::max(done, ReserveCompletion(client, op, m.effect,
                                              i + 1 == ops.size()));
    }
    if (!m.bus_only) {
      if (m.fault.kind == NetFaultKind::kDuplicate) {
        // Retransmission re-executes the member at the NIC: a second
        // engine occupancy, and the effect lands at the later slot.
        net_duplicates_.Inc();
        m.effect = server.engine.ReserveOccupancy(m.effect, leg.engine_ns);
      }
      uint64_t& executed = op.kind == ChainOp::Kind::kWrite ? server.writes
                           : op.atomic()                    ? server.atomics
                                                            : server.reads;
      executed += m.fault.kind == NetFaultKind::kDuplicate ? 2 : 1;
    }
    prev_effect = m.effect;
  }

  // Perform the memory effects in virtual-time order (equals posting order
  // for ordered chains).
  SortByEffect(members);
  uint64_t value = 0;
  for (size_t mi = 0; mi < members.size(); ++mi) {
    const PostMember& m = members[mi];
    const ChainOp& op = ops[m.index];
    co_await sim::DelayUntil(simulator_, m.effect);
    // The epoch probe reports the subject's liveness whatever the reader's.
    if (op.kind != ChainOp::Kind::kEpoch && !ClientAlive(client)) {
      // Died mid-post: the not-yet-executed tail drops atomically.
      for (size_t mj = mi; auditor_ && mj < members.size(); ++mj) {
        auditor_->DropWrite(members[mj].audit_ticket);
      }
      dropped_verbs_.Inc();
      co_return VerbOutcome{};
    }
    // Network fault domain: a member lost before the NIC drops here, and
    // so does the unexecuted tail behind it (net_drop_from marks where the
    // NIC stopped streaming).
    if (m.fault.kind == NetFaultKind::kDropVerb || m.index >= net_drop_from) {
      if (auditor_) auditor_->DropWrite(m.audit_ticket);
      (m.fault.partitioned ? net_partitioned_drops_ : net_dropped_verbs_)
          .Inc();
      continue;
    }
    // Server fault domain: a member whose target server is dead (or dies
    // on exactly this effect), or whose fence server has died, drops
    // individually — members bound for live servers still land, so an
    // unlock aimed at a live primary is not lost to a dead backup.
    const bool fenced_out =
        op.fence_server >= 0 &&
        !ServerAlive(static_cast<uint32_t>(op.fence_server));
    if (fenced_out || !ServerVerbExecutes(op.target.server_id())) {
      if (auditor_) auditor_->DropWrite(m.audit_ticket);
      dropped_verbs_.Inc();
      if (profile.drop_at_post) co_return VerbOutcome{.target_dead = true};
      continue;
    }
    value = ApplyEffect(client, op,
                        m.fault.kind == NetFaultKind::kDuplicate,
                        m.audit_ticket, chain_id);
    if (profile.lost_at_effect &&
        m.fault.kind == NetFaultKind::kDropCompletion) {
      // The effect happened; the acknowledgement (and any pre-image) was
      // lost. The caller resolves by reading protocol state back
      // (docs/fault_model.md §8).
      net_dropped_completions_.Inc();
      co_await sim::DelayUntil(
          simulator_, (m.bus_only ? simulator_.now() : m.effect) +
                          config_.net_verb_timeout_ns);
      co_return VerbOutcome{.completion = VerbCompletion::kLost};
    }
    if (profile.respond_at_effect && !op.atomic()) {
      done = std::max(done, ReserveCompletion(client, op, m.effect, true));
    }
  }
  if (completion_lost) {
    // The signaled tail's acknowledgement never arrives: whatever subset
    // of effects landed stays, but the poster learns nothing and gives up
    // after the retransmission budget.
    co_await sim::DelayUntil(simulator_,
                             done + config_.net_verb_timeout_ns);
    co_return VerbOutcome{.completion = VerbCompletion::kLost};
  }
  // A co-located READ/WRITE off the NIC completed with its bus transfer.
  if (!members[0].bus_only) co_await sim::DelayUntil(simulator_, done);
  co_return VerbOutcome{.value = value, .executed = true};
}

sim::Task<EpochReadResult> Fabric::ReadClientEpoch(uint32_t reader,
                                                   uint32_t target) {
  ChainOp probe;
  probe.kind = ChainOp::Kind::kEpoch;
  probe.len = kEpochBytes;
  probe.subject = target;
  const VerbOutcome probed = co_await Post(reader, {&probe, 1}, kEpochProfile);
  // A dead registry host must surface (waiters bound their probing); a
  // dead reader learns nothing and gets OK/true.
  if (probed.target_dead) {
    co_return EpochReadResult{
        Status::Unavailable("liveness registry host dead"), true};
  }
  co_return EpochReadResult{Status::OK(),
                            !probed.executed || probed.value != 0};
}

sim::Task<VerbCompletion> Fabric::Read(uint32_t client, RemotePtr src,
                                       void* dst, uint32_t len) {
  ChainOp read = ChainOp::Read(src, dst, len);
  co_return (co_await Post(client, {&read, 1}, kSignaledProfile)).completion;
}

sim::Task<VerbCompletion> Fabric::Write(uint32_t client, RemotePtr dst,
                                        const void* src, uint32_t len) {
  ChainOp write = ChainOp::Write(dst, src, len);
  co_return (co_await Post(client, {&write, 1}, kSignaledProfile)).completion;
}

sim::Task<AtomicResult> Fabric::CompareAndSwap(uint32_t client,
                                               RemotePtr target,
                                               uint64_t expected,
                                               uint64_t desired) {
  ChainOp op = ChainOp::Cas(target, expected, desired);
  const VerbOutcome cas = co_await Post(client, {&op, 1}, kSignaledProfile);
  co_return AtomicResult{cas.value, cas.completion};
}

sim::Task<AtomicResult> Fabric::FetchAndAdd(uint32_t client, RemotePtr target,
                                            uint64_t add) {
  ChainOp op = ChainOp::Faa(target, add);
  const VerbOutcome faa = co_await Post(client, {&op, 1}, kSignaledProfile);
  co_return AtomicResult{faa.value, faa.completion};
}

sim::Task<VerbCompletion> Fabric::PostChain(uint32_t client,
                                            std::span<ChainOp> ops) {
  co_return (co_await Post(client, ops, kChainProfile)).completion;
}

sim::Task<VerbCompletion> Fabric::ReadBatch(uint32_t client,
                                            std::span<ChainOp> reads) {
  assert(std::all_of(reads.begin(), reads.end(), [](const ChainOp& op) {
    return op.kind == ChainOp::Kind::kRead;
  }));
  co_return (co_await Post(client, reads, kChainProfile)).completion;
}

sim::Task<RpcResponse> Fabric::Call(uint32_t client, uint32_t server_id,
                                    RpcRequest request) {
  // The one RPC resend discipline (satellite of docs/fault_model.md §8):
  // bounded attempts with a per-attempt deadline. With rpc_timeout_ns unset
  // but network faults live, the retransmission budget stands in as the
  // deadline so a lost SEND cannot hang the caller forever. That synthetic
  // deadline only bounds attempts where a loss was actually drawn — a
  // delivered request with an intact reply path waits for its response,
  // however slow the handler (a long scan legitimately exceeds the verb
  // timeout, and abandoning it would just re-execute it).
  RetryPolicy policy = RetryPolicy::ForRpc(config_);
  bool synthetic_deadline = false;
  if (NetFaultsLive() && policy.timeout_ns == 0) {
    policy.max_attempts = config_.rpc_max_retries + 1;
    policy.timeout_ns = config_.net_verb_timeout_ns;
    synthetic_deadline = true;
  }
  // Every retransmission of this logical call carries the same rpc_id; the
  // server-side dedup layer (AdmitRpc) keys on it so a handler whose reply
  // was lost is answered from cache instead of re-executed. 0 when network
  // faults are off (no resends happen, no dedup state accrues).
  const uint64_t rpc_id = NetFaultsLive() ? next_rpc_id_++ : 0;
  for (uint32_t attempt = 0; !policy.Exhausted(attempt); ++attempt) {
    if (attempt > 0) rpc_retry_attempts_.Inc();
    if (!CountVerbAndCheckAlive(client)) {
      dropped_verbs_.Inc();
      co_await sim::Delay(simulator_, config_.nic_post_ns);
      co_return FailedRpc(StatusCode::kUnavailable);
    }
    doorbells_.Inc();
    signaled_verbs_.Inc();
    NetFault net;
    if (NetFaultsLive()) net = DrawNetFault(client, server_id, false);
    if (net.kind == NetFaultKind::kDropVerb) {
      // The request SEND is lost: the handler never sees it, the caller
      // burns this attempt waiting out the deadline.
      (net.partitioned ? net_partitioned_drops_ : net_dropped_verbs_).Inc();
      co_await sim::Delay(simulator_,
                          config_.nic_post_ns + policy.timeout_ns);
      continue;
    }
    if (net.extra_delay > 0) net_delayed_verbs_.Inc();
    if (!ServerAlive(server_id)) {
      // The connection to a dead server errs out at the posting NIC;
      // retrying cannot help, so fail fast with kUnavailable (also needed
      // with rpc_timeout_ns=0, where a lost delivery would hang forever).
      OnServerDeathNow(server_id);
      co_await sim::Delay(simulator_, config_.nic_post_ns);
      co_return FailedRpc(StatusCode::kUnavailable);
    }
    MemoryServerEndpoint& server = memory_servers_[server_id];
    const SimTime engine_ns = EngineCost(server_id, config_.twosided_engine_ns);
    RequestLeg leg;
    leg.local_bytes = leg.wire_bytes = request.WireBytes();
    leg.engine_ns = engine_ns;
    leg.extra_delay = net.extra_delay;
    SimTime t_deliver = ReserveRequest(client, server_id, leg);
    server.sends++;
    if (net.kind == NetFaultKind::kDuplicate) {
      // A retransmitted SEND costs the NIC twice but the SRQ's completion
      // bookkeeping delivers the request to a handler once.
      net_duplicates_.Inc();
      server.sends++;
      t_deliver = server.engine.ReserveOccupancy(t_deliver, engine_ns);
    }
    co_await sim::DelayUntil(simulator_, t_deliver);
    if (!ClientAlive(client)) {  // SEND dropped in flight
      dropped_verbs_.Inc();
      co_return FailedRpc(StatusCode::kUnavailable);
    }
    if (!ServerVerbExecutes(server_id)) {
      // The server died with the SEND in flight: the request is lost and
      // no worker will ever see it.
      dropped_verbs_.Inc();
      co_return FailedRpc(StatusCode::kUnavailable);
    }

    const uint64_t call_id = next_call_id_++;
    const uint32_t slot = AcquireCallSlot(call_id, server_id);
    PendingCall* pending = &call_slots_[slot];
    IncomingRpc incoming;
    incoming.client_id = client;
    incoming.call_slot = slot;
    incoming.request = request;  // copied: a timeout resends it
    incoming.call_id = call_id;
    incoming.rpc_id = rpc_id;
    server.srq->Deliver(std::move(incoming));
    // The delivered request orders everything the caller did so far before
    // the handler's work (two-sided HB edge).
    if (auditor_) auditor_->OnRpcRequest(client, server_id);

    const SimTime deadline = policy.timeout_ns > 0
                                 ? simulator_.now() + policy.timeout_ns
                                 : 0;
    if (net.kind == NetFaultKind::kDropCompletion) {
      // The handler runs and responds, but the reply SEND is lost on the
      // wire: the caller waits out the full deadline, abandons the call,
      // and resends. The resend carries the same rpc_id, so AdmitRpc on
      // the server answers it from the dedup cache — the handler's effects
      // apply exactly once even though its reply was ambiguous.
      net_dropped_completions_.Inc();
      co_await sim::DelayUntil(simulator_, deadline);
      ReleaseCallSlot(slot);
      rpc_timeouts_.Inc();
      continue;
    }
    const bool completed = co_await pending->done.AwaitUntil(
        synthetic_deadline ? 0 : deadline);
    if (!completed) {
      // Abandon the call: the slot is freed here, so a handler that
      // responds later finds it free or serving a later call id (never a
      // dangling caller frame).
      ReleaseCallSlot(slot);
      rpc_timeouts_.Inc();
      continue;
    }
    co_await sim::DelayUntil(simulator_, pending->deliver_at);
    RpcResponse response = std::move(pending->response);
    ReleaseCallSlot(slot);
    if (!ClientAlive(client)) {
      response = FailedRpc(StatusCode::kUnavailable);
    } else if (auditor_) {
      // The consumed reply closes the RPC pair: the handler's effects are
      // now ordered before everything the caller does next.
      auditor_->OnRpcReply(client, server_id);
    }
    co_return response;
  }
  rpc_retry_exhausted_.Inc();
  co_return FailedRpc(StatusCode::kTimedOut);
}

bool Fabric::AdmitRpc(uint32_t server_id, const IncomingRpc& rpc) {
  if (rpc.rpc_id == 0) return true;  // network faults off: no resends exist
  auto [it, inserted] = rpc_dedup_.try_emplace(rpc.rpc_id);
  if (inserted) return true;  // first delivery: run the handler
  RpcDedupEntry& entry = it->second;
  rpc_dedup_hits_.Inc();
  if (entry.done) {
    // Already executed, reply was lost: retransmit the cached response
    // (paying the reply send costs again) without re-running the handler.
    Respond(server_id, rpc, entry.response);
  } else {
    // The original delivery is still in a handler. Park this duplicate;
    // Respond answers it from the cache the moment the original replies.
    entry.waiters.push_back(rpc);
  }
  return false;
}

void Fabric::Respond(uint32_t server_id, const IncomingRpc& incoming,
                     RpcResponse response) {
  if (incoming.rpc_id != 0) {
    auto it = rpc_dedup_.find(incoming.rpc_id);
    if (it != rpc_dedup_.end() && !it->second.done) {
      // First reply for this rpc_id: cache it for retransmissions, then
      // answer every duplicate that arrived while the handler ran. The
      // recursive Respond calls see done == true and skip this block.
      it->second.done = true;
      it->second.response = response;
      std::vector<IncomingRpc> waiters = std::move(it->second.waiters);
      it->second.waiters.clear();
      for (const IncomingRpc& w : waiters) {
        Respond(server_id, w, it->second.response);
      }
    }
  }
  if (!ServerAlive(server_id)) {
    // A handler racing its own server's death: the dead NIC sends
    // nothing. The caller was (or will be) failed by the death fallout.
    dropped_responses_.Inc();
    return;
  }
  // The reply SEND always pays its costs — the responding NIC cannot know
  // the caller abandoned the call.
  const SimTime done = ReserveResponse(incoming.client_id, server_id,
                                       simulator_.now(), response.WireBytes());

  // Call ids start at 1, so a free slot (id 0) never matches a delivery.
  if (incoming.call_slot >= call_slots_.size() ||
      call_slots_[incoming.call_slot].call_id != incoming.call_id) {
    dropped_responses_.Inc();  // caller timed out or died; reply goes nowhere
    return;
  }
  PendingCall& pending = call_slots_[incoming.call_slot];
  pending.response = std::move(response);
  pending.deliver_at = done;
  pending.done.Set();
}

uint32_t Fabric::AcquireCallSlot(uint64_t call_id, uint32_t server_id) {
  uint32_t slot;
  if (free_call_slots_.empty()) {
    slot = static_cast<uint32_t>(call_slots_.size());
    call_slots_.emplace_back(simulator_);
  } else {
    slot = free_call_slots_.back();
    free_call_slots_.pop_back();
  }
  PendingCall& pending = call_slots_[slot];
  pending.call_id = call_id;
  pending.response = RpcResponse{};
  pending.deliver_at = 0;
  pending.server_id = server_id;
  pending.done.Reset();
  return slot;
}

void Fabric::ReleaseCallSlot(uint32_t slot) {
  call_slots_[slot].call_id = 0;
  free_call_slots_.push_back(slot);
}

Fabric::ServerStats Fabric::server_stats(uint32_t server) const {
  const MemoryServerEndpoint& ep = memory_servers_[server];
  ServerStats stats;
  stats.tx_bytes = ep.tx.total_bytes();
  stats.rx_bytes = ep.rx.total_bytes();
  stats.verbs = ep.engine.total_transfers();
  stats.engine_busy = ep.engine.busy_time();
  stats.reads = ep.reads;
  stats.writes = ep.writes;
  stats.atomics = ep.atomics;
  stats.sends = ep.sends;
  return stats;
}

void Fabric::ResetStats() {
  for (auto& ep : memory_servers_) {
    ep.tx.ResetStats();
    ep.rx.ResetStats();
    ep.engine.ResetStats();
    ep.reads = 0;
    ep.writes = 0;
    ep.atomics = 0;
    ep.sends = 0;
  }
  for (auto& ep : compute_machines_) {
    ep->tx.ResetStats();
    ep->rx.ResetStats();
  }
  for (auto& bus : local_bus_) bus->ResetStats();
  signaled_verbs_.Reset();
  unsignaled_verbs_.Reset();
  doorbells_.Reset();
}

}  // namespace namtree::rdma
