#include "rdma/audit.h"

#include <algorithm>
#include <cstring>

namespace namtree::rdma {

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kWriteWithoutLock:
      return "WriteWithoutLock";
    case ViolationKind::kUnlockWithoutLock:
      return "UnlockWithoutLock";
    case ViolationKind::kUnlockByNonHolder:
      return "UnlockByNonHolder";
    case ViolationKind::kVersionRegression:
      return "VersionRegression";
    case ViolationKind::kTornRead:
      return "TornRead";
    case ViolationKind::kLockStealFromLiveHolder:
      return "LockStealFromLiveHolder";
    case ViolationKind::kRemoteRace:
      return "RemoteRace";
    case ViolationKind::kUnresolvedAmbiguousRetry:
      return "UnresolvedAmbiguousRetry";
    case ViolationKind::kUnhookedWrite:
      return "UnhookedWrite";
  }
  return "Unknown";
}

std::string Violation::Describe() const {
  std::string s(ViolationKindName(kind));
  s += " client=" + std::to_string(client);
  s += " target=" + target.ToString();
  s += " observed=" + std::to_string(observed);
  s += " attempted=" + std::to_string(attempted);
  s += " t=" + std::to_string(time);
  if (occurrences > 1) s += " x" + std::to_string(occurrences);
  if (!detail.empty()) s += " [" + detail + "]";
  return s;
}

std::string VerbAuditor::Access::Describe() const {
  std::string s(op);
  s += " client=" + std::to_string(client);
  if (chain != 0) s += " chain=" + std::to_string(chain);
  s += " at=" + at.ToString();
  s += " len=" + std::to_string(len);
  s += disciplined ? " (protocol)" : " (unordered)";
  s += " t=" + std::to_string(time);
  return s;
}

std::string VerbAuditor::VerbRecord::Describe() const {
  std::string s = "t=" + std::to_string(time);
  s += " client=" + std::to_string(client);
  s += " op=";
  s += op;
  s += " target=" + target.ToString();
  s += " len=" + std::to_string(len);
  if (chain != 0) s += " chain=" + std::to_string(chain);
  return s;
}

VerbAuditor::WordState* VerbAuditor::FindWord(RemotePtr target) {
  auto server_it = words_.find(target.server_id());
  if (server_it == words_.end()) return nullptr;
  auto word_it = server_it->second.find(target.offset());
  if (word_it == server_it->second.end()) return nullptr;
  return &word_it->second;
}

uint64_t VerbAuditor::Tick(uint32_t client) {
  VectorClock& vc = client_vc_[client];
  vc.Tick(client);
  return vc.Of(client);
}

bool VerbAuditor::HappensBefore(const Access& earlier, uint32_t later_client) {
  return client_vc_[later_client].Of(earlier.client) >= earlier.clock;
}

VerbAuditor::Access VerbAuditor::MakeAccess(uint32_t client, const char* op,
                                            RemotePtr at, uint32_t len,
                                            uint64_t chain, SimTime now) {
  Access a;
  a.client = client;
  a.clock = client_vc_[client].Of(client);
  a.chain = chain;
  a.at = at;
  a.len = len;
  a.time = now;
  a.op = op;
  return a;
}

template <typename Fn>
void VerbAuditor::ForEachCoveredWord(uint32_t server, uint64_t lo,
                                     uint64_t hi, Fn&& fn) {
  auto server_it = words_.find(server);
  if (server_it == words_.end()) return;
  ServerWords& words = server_it->second;
  auto it = words.upper_bound(lo);
  if (it != words.begin()) {
    auto prev = std::prev(it);
    // The nearest word at or before `lo` covers the range iff its learned
    // page span reaches past `lo`.
    if (prev->first + prev->second.extent > lo) fn(prev->first, prev->second);
  }
  for (; it != words.end() && it->first < hi; ++it) fn(it->first, it->second);
}

void VerbAuditor::BindMetrics(metrics::MetricRegistry* registry) {
  if (registry == nullptr) return;
  registry->RegisterCounter(lock_steals_, "audit.lock_steals", {},
                            "sanctioned CAS-clears of dead holders' locks");
  registry->RegisterCounter(total_occurrences_, "audit.violations_total",
                            {}, "protocol-violation occurrences, all kinds");
  registry->RegisterCounter(suppressed_violations_,
                            "audit.suppressed_violations", {},
                            "occurrences dropped at the storage cap");
  for (int k = 0;
       k <= static_cast<int>(ViolationKind::kUnhookedWrite); ++k) {
    const auto kind = static_cast<ViolationKind>(k);
    registry->RegisterCallback(
        "audit.violations",
        [this, kind] { return static_cast<uint64_t>(CountOfKind(kind)); },
        {{"kind", ViolationKindName(kind)}},
        "deduplicated violation occurrences by kind");
  }
  registry->RegisterCallback(
      "audit.tracked_words",
      [this] { return static_cast<uint64_t>(tracked_words()); }, {},
      "version words currently under protocol tracking");
}

void VerbAuditor::Record(Violation v) {
  total_occurrences_.Inc();
  const auto key = std::make_pair(static_cast<int>(v.kind), v.target.raw());
  auto it = violation_index_.find(key);
  if (it != violation_index_.end()) {
    violations_[it->second].occurrences++;
    return;
  }
  if (violations_.size() >= kMaxStoredViolations) {
    suppressed_violations_.Inc();
    return;
  }
  violation_index_.emplace(key, violations_.size());
  violations_.push_back(std::move(v));
}

void VerbAuditor::Report(ViolationKind kind, uint32_t client,
                         RemotePtr target, uint64_t observed,
                         uint64_t attempted, SimTime now) {
  Violation v;
  v.kind = kind;
  v.client = client;
  v.target = target;
  v.observed = observed;
  v.attempted = attempted;
  v.time = now;
  Record(std::move(v));
}

void VerbAuditor::ReportRace(const Access& earlier, const Access& later,
                             RemotePtr word, SimTime now) {
  Violation v;
  v.kind = ViolationKind::kRemoteRace;
  v.client = later.client;
  v.target = word;
  v.observed = earlier.client;
  v.attempted = later.client;
  v.time = now;
  v.detail = earlier.Describe() + "  vs  " + later.Describe();
  Record(std::move(v));
}

void VerbAuditor::RecordTrace(uint32_t client, const char* op,
                              RemotePtr target, uint32_t len, uint64_t chain,
                              SimTime now) {
  if (trace_capacity_ == 0) return;
  if (trace_.size() >= trace_capacity_) trace_.pop_front();
  VerbRecord r;
  r.client = client;
  r.op = op;
  r.target = target;
  r.len = len;
  r.chain = chain;
  r.time = now;
  trace_.push_back(r);
}

void VerbAuditor::CheckWriteRaces(WordState& state, RemotePtr word_ptr,
                                  const Access& write_in, SimTime now) {
  Access write = write_in;
  write.disciplined = state.locked && state.holder == write.client;
  // Write vs write: two lock-disciplined writes are always HB-ordered via
  // the release->acquire hand-off, so any unordered pair involves at least
  // one undisciplined writer.
  if (state.has_last_write && !HappensBefore(state.last_write, write.client)) {
    ReportRace(state.last_write, write, word_ptr, now);
  }
  // Write vs validated read: the version protocol arbitrates this pair
  // when the writer holds the lock (the reader re-validates and retries),
  // so only an undisciplined writer can race a validated read.
  if (!write.disciplined) {
    for (const auto& [reader, read] : state.validated_reads) {
      if (!HappensBefore(read, write.client)) {
        ReportRace(read, write, word_ptr, now);
      }
    }
  }
  // Write vs lock-elided read: nothing arbitrates — the reader skipped the
  // version word, so even a lock-disciplined write races it.
  for (const auto& [reader, read] : state.elided_reads) {
    if (!HappensBefore(read, write.client)) {
      ReportRace(read, write, word_ptr, now);
    }
  }
  state.last_write = write;
  state.has_last_write = true;
  // Reads ordered before this write can never race anything later than the
  // write itself (transitivity through last_write); retire them.
  for (auto it = state.validated_reads.begin();
       it != state.validated_reads.end();) {
    it = HappensBefore(it->second, write.client)
             ? state.validated_reads.erase(it)
             : std::next(it);
  }
  for (auto it = state.elided_reads.begin();
       it != state.elided_reads.end();) {
    it = HappensBefore(it->second, write.client)
             ? state.elided_reads.erase(it)
             : std::next(it);
  }
}

uint64_t VerbAuditor::OnWritePosted(uint32_t client, RemotePtr dst,
                                    uint32_t len, SimTime now,
                                    uint64_t chain) {
  (void)now;
  if (!enabled_) return 0;
  InflightWrite w;
  w.client = client;
  w.dst = dst;
  w.len = len;
  w.chain = chain;
  // Decide at post time whether the write is lock-protected: the protocol
  // CASes the lock bit *before* posting the write-back, so any tracked word
  // in range must already be locked by this client.
  auto server_it = words_.find(dst.server_id());
  if (server_it != words_.end()) {
    const uint64_t lo = dst.offset();
    const uint64_t hi = lo + len;
    for (auto it = server_it->second.lower_bound(lo > 7 ? lo - 7 : 0);
         it != server_it->second.end() && it->first < hi; ++it) {
      if (it->first + 8 <= lo) continue;  // word ends before the range
      if (!it->second.locked || it->second.holder != client) {
        w.unprotected = true;
        break;
      }
    }
  }
  const uint64_t ticket = next_ticket_++;
  inflight_.emplace(ticket, w);
  return ticket;
}

void VerbAuditor::OnWriteEffect(uint64_t ticket, const void* payload,
                                SimTime now) {
  if (ticket == 0) return;
  auto it = inflight_.find(ticket);
  if (it == inflight_.end()) return;
  const InflightWrite w = it->second;
  inflight_.erase(it);
  if (!enabled_) return;

  Tick(w.client);
  RecordTrace(w.client, "WRITE", w.dst, w.len, w.chain, now);
  const Access access = MakeAccess(w.client, "WRITE", w.dst, w.len, w.chain,
                                   now);
  const uint64_t lo = w.dst.offset();
  const uint64_t hi = lo + w.len;
  ForEachCoveredWord(
      w.dst.server_id(), lo, hi, [&](uint64_t off, WordState& state) {
        const RemotePtr word_ptr = RemotePtr::Make(w.dst.server_id(), off);
        const bool covers_word = lo <= off && off + 8 <= hi;
        if (!covers_word) {
          // The write lands inside the word's learned page span without
          // touching the word itself: a pure data access.
          CheckWriteRaces(state, word_ptr, access, now);
          return;
        }
        uint64_t new_word;
        std::memcpy(&new_word,
                    static_cast<const uint8_t*>(payload) + (off - lo), 8);
        // An exactly-word-sized WRITE that clears the lock bit is a
        // WRITE-based lock release — the tail of a doorbell-batched {page
        // WRITE, unlock WRITE} chain. Judge it by the unlock rules (so the
        // sanctioned combined shape passes and a rogue release gets the
        // precise verdict) instead of flagging it as a generic
        // write-without-lock.
        const bool word_sized = w.len == 8 && off == lo;
        const bool unlock_shape = word_sized && !LockedWord(new_word);
        if (unlock_shape) {
          if (!state.locked) {
            Report(ViolationKind::kUnlockWithoutLock, w.client, word_ptr,
                   state.last_word, new_word, now);
          } else if (state.holder != w.client) {
            Report(ViolationKind::kUnlockByNonHolder, w.client, word_ptr,
                   state.last_word, new_word, now);
          }
        } else if (!state.locked || state.holder != w.client) {
          Report(ViolationKind::kWriteWithoutLock, w.client, word_ptr,
                 state.last_word, new_word, now);
        }
        if (VersionPart(new_word) < VersionPart(state.last_word)) {
          Report(ViolationKind::kVersionRegression, w.client, word_ptr,
                 state.last_word, new_word, now);
        }
        // Happens-before pass, on the pre-mirror lock state. A word-sized
        // write at the word is a synchronization access (release or rogue
        // release, judged above), never a data-race participant.
        if (!word_sized) CheckWriteRaces(state, word_ptr, access, now);
        state.extent = std::max(state.extent, hi - off);
        // Mirror what the memcpy is about to install.
        const bool was_locked = state.locked;
        state.last_word = new_word;
        state.locked = LockedWord(new_word);
        if (state.locked && !was_locked) state.holder = w.client;
        // Any transition to unlocked publishes the writer's clock: the
        // next acquirer physically observes this value, so the order is
        // real even when the release itself was rogue.
        if (was_locked && !state.locked) {
          state.release_vc = client_vc_[w.client];
        }
      });
}

void VerbAuditor::OnReadEffect(uint32_t client, RemotePtr src, uint32_t len,
                               SimTime now, uint64_t chain) {
  if (!enabled_) return;
  Tick(client);
  RecordTrace(client, "READ", src, len, chain, now);
  const uint64_t lo = src.offset();
  const uint64_t hi = lo + len;
  for (const auto& [ticket, w] : inflight_) {
    (void)ticket;
    if (!w.unprotected) continue;
    if (w.dst.server_id() != src.server_id()) continue;
    const uint64_t wlo = w.dst.offset();
    const uint64_t whi = wlo + w.len;
    if (wlo < hi && lo < whi) {
      Report(ViolationKind::kTornRead, client, src, w.client, len, now);
      break;  // one torn-read finding per read is enough
    }
  }

  ForEachCoveredWord(
      src.server_id(), lo, hi, [&](uint64_t off, WordState& state) {
        const RemotePtr word_ptr = RemotePtr::Make(src.server_id(), off);
        const bool covers_word = lo <= off && off + 8 <= hi;
        if (covers_word) {
          // Observing the version word orders this read after the release
          // that produced the observed value.
          client_vc_[client].Join(state.release_vc);
          state.extent = std::max(state.extent, hi - off);
          // An exactly-word-sized read is a version probe: a pure
          // synchronization access.
          if (len == 8 && off == lo) return;
          Access read = MakeAccess(client, "READ", src, len, chain, now);
          read.disciplined = true;
          // A validated read races only undisciplined writes: against a
          // lock-holding writer the version protocol makes the reader
          // discard and retry.
          if (state.has_last_write && !state.last_write.disciplined &&
              !HappensBefore(state.last_write, client)) {
            ReportRace(state.last_write, read, word_ptr, now);
          }
          state.validated_reads[client] = read;
        } else {
          // Lock-elided read: the range lies inside the page span but
          // skips the version word, so no validation can save it — any
          // unordered write is a race.
          Access read = MakeAccess(client, "READ", src, len, chain, now);
          if (state.has_last_write &&
              !HappensBefore(state.last_write, client)) {
            ReportRace(state.last_write, read, word_ptr, now);
          }
          state.elided_reads[client] = read;
        }
      });
}

void VerbAuditor::OnCasEffect(uint32_t client, RemotePtr target,
                              uint64_t expected, uint64_t desired,
                              uint64_t observed, SimTime now,
                              uint64_t chain) {
  if (!enabled_) return;
  Tick(client);
  const bool swapped = observed == expected;
  RecordTrace(client, swapped ? "CAS" : "CAS-fail", target, 8, chain, now);
  // Acquire shape: an unlocked word becomes locked with the version
  // unchanged. Covers both the raw `CAS(v -> v|1)` form and the
  // holder-stamping `CAS(v -> MakeLockedWord(v, client))` form (the holder
  // bits differ; VersionPart masks them out).
  const bool lock_acquire_shape = !LockedWord(expected) &&
                                  LockedWord(desired) &&
                                  VersionPart(desired) == VersionPart(expected);
  WordState* state = FindWord(target);

  if (state == nullptr) {
    // Begin tracking on the first successful lock acquire; anything else on
    // untracked memory (catalog installs, application CASes) is not ours.
    if (swapped && lock_acquire_shape) {
      WordState fresh;
      fresh.locked = true;
      fresh.holder = client;
      fresh.last_word = desired;
      words_[target.server_id()].emplace(target.offset(), fresh);
    }
    return;
  }
  if (!swapped) {
    // A failed acquire CAS against a word the CASer *already holds* is a
    // blind retry of an ambiguous (lost-completion) CAS whose first
    // execution landed: the sanctioned recovery reads the holder-stamped
    // word back instead of re-CASing (docs/fault_model.md §8). The spin
    // loop against someone else's lock never matches (holder differs).
    if (lock_acquire_shape && state->locked && state->holder == client &&
        LockedWord(observed)) {
      Report(ViolationKind::kUnresolvedAmbiguousRetry, client, target,
             observed, desired, now);
    }
    return;  // failed CAS has no memory effect
  }

  if (lock_acquire_shape && !state->locked) {
    // Release -> acquire: the new holder inherits everything ordered
    // before the last release.
    client_vc_[client].Join(state->release_vc);
    state->locked = true;
    state->holder = client;
    state->last_word = desired;
    return;
  }
  // Steal shape: a non-holder CASes a *locked* word back to unlocked. The
  // crash-recovery protocol (docs/fault_model.md) sanctions this only when
  // the holder is dead; against a live holder it races the holder's
  // write-back and is flagged.
  if (state->locked && LockedWord(expected) && !LockedWord(desired) &&
      client != state->holder) {
    const bool holder_dead =
        liveness_probe_ && !liveness_probe_(state->holder);
    if (holder_dead) {
      lock_steals_.Inc();
      // The sanctioned steal is the recovery-time hand-off: the stealer
      // adopts the dead holder's history so the holder's landed writes
      // are ordered before everything after the steal.
      client_vc_[client].Join(client_vc_[state->holder]);
    } else {
      Report(ViolationKind::kLockStealFromLiveHolder, client, target,
             observed, desired, now);
    }
    if (VersionPart(desired) < VersionPart(observed)) {
      Report(ViolationKind::kVersionRegression, client, target, observed,
             desired, now);
    }
    state->last_word = desired;
    state->locked = false;
    state->release_vc = client_vc_[client];
    return;
  }
  // Any other successful CAS mutates a version word out of protocol; the
  // one invariant we can still check is version monotonicity. Atomics
  // serialize through the target NIC, so they are synchronization
  // accesses, never data-race participants.
  if (VersionPart(desired) < VersionPart(observed)) {
    Report(ViolationKind::kVersionRegression, client, target, observed,
           desired, now);
  }
  const bool was_locked = state->locked;
  state->last_word = desired;
  state->locked = LockedWord(desired);
  if (state->locked && !was_locked) {
    state->holder = client;
    client_vc_[client].Join(state->release_vc);
  } else if (!state->locked && was_locked) {
    state->release_vc = client_vc_[client];
  }
}

void VerbAuditor::OnFaaEffect(uint32_t client, RemotePtr target, uint64_t add,
                              uint64_t prev, SimTime now, uint64_t chain) {
  if (!enabled_) return;
  Tick(client);
  RecordTrace(client, "FAA", target, 8, chain, now);
  WordState* state = FindWord(target);
  if (state == nullptr) return;  // allocation cursors etc.

  const uint64_t updated = prev + add;
  if (!LockedWord(prev)) {
    Report(ViolationKind::kUnlockWithoutLock, client, target, prev, add, now);
  } else if (state->holder != client) {
    Report(ViolationKind::kUnlockByNonHolder, client, target, prev, add, now);
  }
  if (VersionPart(updated) < VersionPart(prev)) {
    Report(ViolationKind::kVersionRegression, client, target, prev, updated,
           now);
  }
  const bool was_locked = state->locked;
  state->last_word = updated;
  state->locked = LockedWord(updated);
  if (was_locked && !state->locked) {
    state->release_vc = client_vc_[client];
  }
}

void VerbAuditor::DropWrite(uint64_t ticket) {
  if (ticket == 0) return;
  inflight_.erase(ticket);
}

void VerbAuditor::OnImagePinned(const void* image, uint32_t client,
                                RemotePtr target, const uint8_t* bytes,
                                uint32_t len) {
  if (!enabled_) return;
  ImageShadow& shadow = image_shadows_[image];
  shadow.pinned = true;
  shadow.client = client;
  shadow.target = target;
  shadow.bytes.assign(bytes, bytes + len);
}

void VerbAuditor::OnImageReleased(const void* image, const uint8_t* served,
                                  SimTime now) {
  if (!enabled_) return;
  auto it = image_shadows_.find(image);
  if (it == image_shadows_.end() || !it->second.pinned) return;
  ImageShadow& shadow = it->second;
  shadow.pinned = false;
  if (served != nullptr &&
      std::memcmp(served, shadow.bytes.data(), shadow.bytes.size()) != 0) {
    Report(ViolationKind::kUnhookedWrite, shadow.client, shadow.target, 0,
           0, now);
  }
}

void VerbAuditor::OnRpcRequest(uint32_t client, uint32_t server) {
  if (!enabled_) return;
  Tick(client);
  RecordTrace(client, "RPC-REQ", RemotePtr::Make(server, 0), 0, 0, 0);
  // The service point sequences delivered requests: everything the caller
  // did so far is ordered before the handler's work. This deliberately
  // over-approximates (concurrent handlers are modeled as one serialized
  // service clock), which can only hide races, never invent them.
  server_vc_[server].Join(client_vc_[client]);
}

void VerbAuditor::OnServerDeath(uint32_t server) {
  if (!enabled_) return;
  words_.erase(server);
  // In-flight writes aimed at the dead region never land; drop their
  // tickets so later reads do not flag them as torn-read suspects.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    it = it->second.dst.server_id() == server ? inflight_.erase(it)
                                              : std::next(it);
  }
}

void VerbAuditor::OnRpcReply(uint32_t client, uint32_t server) {
  if (!enabled_) return;
  RecordTrace(client, "RPC-REP", RemotePtr::Make(server, 0), 0, 0, 0);
  client_vc_[client].Join(server_vc_[server]);
}

std::vector<VerbAuditor::LockedWordInfo> VerbAuditor::LockedWords() const {
  std::vector<LockedWordInfo> out;
  for (const auto& [server, words] : words_) {
    for (const auto& [offset, state] : words) {
      if (!state.locked) continue;
      out.push_back(LockedWordInfo{RemotePtr::Make(server, offset),
                                   state.holder});
    }
  }
  return out;
}

size_t VerbAuditor::CountOfKind(ViolationKind kind) const {
  size_t n = 0;
  for (const Violation& v : violations_) {
    if (v.kind == kind) n += v.occurrences;
  }
  return n;
}

size_t VerbAuditor::tracked_words() const {
  size_t n = 0;
  for (const auto& [server, words] : words_) {
    (void)server;
    n += words.size();
  }
  return n;
}

Status VerbAuditor::CheckClean() const {
  if (violations_.empty()) return Status::OK();
  return Status::Corruption(
      std::to_string(violations_.size()) + " protocol violation(s) (" +
      std::to_string(total_occurrences_) +
      " occurrence(s)); first: " + violations_.front().Describe());
}

void VerbAuditor::ClearViolations() {
  violations_.clear();
  violation_index_.clear();
  total_occurrences_.Reset();
  suppressed_violations_.Reset();
}

void VerbAuditor::Reset() {
  ClearViolations();
  words_.clear();
  inflight_.clear();
  image_shadows_.clear();
  client_vc_.clear();
  server_vc_.clear();
  trace_.clear();
}

void VerbAuditor::set_trace_capacity(size_t n) {
  trace_capacity_ = n;
  while (trace_.size() > trace_capacity_) trace_.pop_front();
}

std::string VerbAuditor::DumpTrace() const {
  std::string out;
  for (const VerbRecord& r : trace_) {
    out += r.Describe();
    out += '\n';
  }
  return out;
}

}  // namespace namtree::rdma
