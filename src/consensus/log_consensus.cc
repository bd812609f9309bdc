#include "consensus/log_consensus.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/logging.h"

namespace lls {

void LogConsensus::on_start(Runtime& rt) {
  self_ = rt.id();
  n_ = rt.n();
  rt_ = &rt;
  support_until_.assign(static_cast<std::size_t>(n_), 0);
  peers_.assign(static_cast<std::size_t>(n_), PeerProgress{});
  // Sharded engines get per-shard histograms (the registry is name-keyed,
  // so the shard suffix is the label).
  decide_latency_ = &rt.obs().registry().histogram(
      config_.shard < 0 ? std::string("consensus_decide_latency_ms")
                        : "consensus_decide_latency_ms_shard" +
                              std::to_string(config_.shard));
  if (config_.durable) restore(rt);
  tick_timer_ = rt.set_timer(config_.retry_period);
}

namespace {
constexpr const char* kDurableKey = "log_consensus/state";
}  // namespace

void LogConsensus::persist(Runtime& rt) const {
  StableStorage* storage = rt.storage();
  if (storage == nullptr) {
    throw std::logic_error("durable LogConsensus requires Runtime::storage()");
  }
  Bytes acceptor_blob = acceptor_.encode();
  std::size_t size = 4 + acceptor_blob.size() + sizeof(Instance) + 4;
  for (const auto& slot : log_) {
    size += 1 + (slot.has_value() ? 4 + slot->size() : 0);
  }
  Bytes out(size);
  FlatWriter w(out);
  w.put_bytes(acceptor_blob);
  w.put(log_base_);
  w.put(static_cast<std::uint32_t>(log_.size()));
  for (const auto& slot : log_) {
    w.put(static_cast<std::uint8_t>(slot.has_value() ? 1 : 0));
    if (slot.has_value()) w.put_bytes(*slot);
  }
  storage->write(kDurableKey, out);
}

void LogConsensus::restore(Runtime& rt) {
  StableStorage* storage = rt.storage();
  if (storage == nullptr) {
    throw std::logic_error("durable LogConsensus requires Runtime::storage()");
  }
  // Crash-recovery conservatism: fences are volatile, so a recovered
  // acceptor may have granted a supporting reply it no longer remembers.
  // Refuse support to EVERYONE (fence-all: holder = kNoProcess) for one
  // full window — any lease the old promise could still be backing has
  // expired by then. Applies even on first boot (we cannot tell the two
  // apart without persisting fences).
  if (fence_enforced()) {
    fence_holder_ = kNoProcess;
    fence_round_ = kNoRound;
    fence_until_ = rt.now() + config_.lease.duration;
  }
  auto blob = storage->read(kDurableKey);
  if (!blob.has_value()) return;  // first boot
  BufReader r(*blob);
  acceptor_ = Acceptor::decode(r.get_bytes());
  log_base_ = r.get<Instance>();
  auto count = r.get<std::uint32_t>();
  log_.clear();
  log_.reserve(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    if (r.get<std::uint8_t>() != 0) {
      log_.emplace_back(r.get_bytes());
    } else {
      log_.emplace_back(std::nullopt);
    }
  }
  highest_seen_round_ = std::max(highest_seen_round_, acceptor_.promised());
  // Re-fire decisions for the restored contiguous prefix so a recovering
  // application can rebuild its state machine.
  next_notify_ = log_base_;
  while (next_notify_ < log_size() && decided_value(next_notify_) != nullptr) {
    const Bytes& v = *decided_value(next_notify_);
    Instance idx = next_notify_;
    ++next_notify_;
    notify_decision(rt, idx, v, group_tag());
  }
}

void LogConsensus::propose(Bytes value) {
  ++proposals_;
  // Values must be unique per submission (the RSM layer guarantees this via
  // command ids): the decided log is the only completion signal we have.
  // A byte-identical value already queued or in flight is the same
  // submission racing itself (e.g. a client retry re-admitted before the
  // first placement decided) — proposing it again could only burn an extra
  // instance, so drop it here.
  for (const Bytes& v : pending_) {
    if (v == value) {
      ++dup_proposals_suppressed_;
      return;
    }
  }
  for (const auto& [i, inf] : inflight_) {
    if (inf.value == value) {
      ++dup_proposals_suppressed_;
      return;
    }
  }
  pending_.push_back(std::move(value));
  // Eager dispatch: a ready leader assigns immediately (2-message-delay
  // steady state); a follower forwards now rather than on the next tick.
  if (rt_ == nullptr) return;
  if (i_am_omega_leader()) {
    if (leader_ready_) assign_pending(*rt_);
  } else {
    ProcessId l = omega_->leader();
    if (l != kNoProcess && l != self_) {
      ForwardMsg fwd{WireBlob::ref(pending_.back())};
      rt_->send(l, msg_type::kForward,
                wire::encode_pooled(rt_->pool(), fwd).view());
    }
  }
}

std::optional<Bytes> LogConsensus::decision(Instance i) const {
  const Bytes* v = decided_value(i);
  if (v != nullptr) return *v;
  return std::nullopt;
}

Instance LogConsensus::first_undecided() const { return next_notify_; }
Instance LogConsensus::commit_upto() const { return next_notify_; }

void LogConsensus::on_timer(Runtime& rt, TimerId timer) {
  if (timer == fence_wake_timer_) {
    fence_wake_timer_ = kInvalidTimer;
    if (i_am_omega_leader() && !leader_ready_ && !preparing_) {
      start_prepare(rt);
    }
    return;
  }
  if (timer != tick_timer_) return;
  tick_timer_ = rt.set_timer(config_.retry_period);
  drive(rt);
}

void LogConsensus::drive(Runtime& rt) {
  if (config_.lease.enabled) sample_lease_span(rt);
  if (i_am_omega_leader()) {
    if (!leader_ready_ && !preparing_) start_prepare(rt);
    if (leader_ready_) assign_pending(rt);
    retransmit(rt);
    advance_safe_point(rt);
    return;
  }
  // Not the leader: drop any proposer role and re-forward pending values to
  // whoever Omega currently trusts. Followers send only these forwards,
  // pushes of decisions the leader lacks, and direct replies, never
  // broadcasts.
  if (preparing_ || leader_ready_) abdicate();
  catch_up(rt);
  ProcessId l = omega_->leader();
  if (l != kNoProcess && l != self_) {
    for (const Bytes& v : pending_) {
      ForwardMsg fwd{WireBlob::ref(v)};
      rt.send(l, msg_type::kForward,
              wire::encode_pooled(rt.pool(), fwd).view());
    }
  }
}

void LogConsensus::start_prepare(Runtime& rt) {
  // Campaign fence: the fence discipline binds this process's own candidacy
  // too. Self-promising while fenced to another holder would hand the one
  // acceptor the quorum-intersection argument hinges on to a rival — this
  // very process — letting it assemble a majority inside the holder's
  // window (asymmetric partitions make this reachable; see DESIGN.md §14).
  // Also covers the crash-recovery fence-all (holder = kNoProcess). No
  // state changes before this point. The candidate wakes at the fence's
  // expiry rather than on its next poll: the rival acceptors' fences to a
  // crashed holder lapse at about the same instant, and a PREPARE that
  // waits up to a retry period for the poll loses that race. A renewed
  // fence simply re-arms the wake.
  if (fenced_against(self_, rt.now())) {
    if (fence_wake_timer_ == kInvalidTimer) {
      fence_wake_timer_ = rt.set_timer(fence_until_ - rt.now());
    }
    return;
  }
  Round bound = std::max({highest_seen_round_, acceptor_.promised(), my_round_});
  my_round_ = next_ballot(self_, n_, bound);
  preparing_ = true;
  promises_.clear();
  promise_merge_.clear();
  prepare_from_ = first_undecided();

  // Self-promise: raise the local acceptor's promise and merge its state.
  acceptor_.on_prepare(my_round_);
  promises_.insert(self_);
  for (const auto& [i, pair] : acceptor_.all_accepted()) {
    if (i >= prepare_from_ && !is_decided(i)) promise_merge_[i] = pair;
  }
  if (static_cast<int>(promises_.size()) >= majority()) {
    become_ready(rt);
    return;
  }
  prepare_sent_at_ = rt.now();
  auto payload = wire::encode_pooled(
      rt.pool(), PrepareMsg{my_round_, prepare_from_, rt.now()});
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_) rt.send(q, msg_type::kPrepare, payload.view());
  }
}

void LogConsensus::become_ready(Runtime& rt) {
  leader_ready_ = true;
  preparing_ = false;
  {
    obs::Event e;
    e.type = obs::EventType::kEpochStart;
    e.t = rt.now();
    e.process = self_;
    e.a = static_cast<std::uint64_t>(my_round_);
    rt.obs().bus().publish(e);
  }

  // The proposer's frontier: above everything decided, merged or in flight.
  next_free_ = std::max<Instance>(next_free_, log_size());
  next_free_ = std::max<Instance>(next_free_, prepare_from_);
  if (!promise_merge_.empty()) {
    next_free_ = std::max<Instance>(next_free_, promise_merge_.rbegin()->first + 1);
  }
  // Lease freshness gate: local reads are stale until every instance below
  // this epoch-start frontier has been learned and applied (a predecessor
  // may have decided writes this leader has merely merged, not delivered).
  ready_watermark_ = next_free_;

  // Fill holes the quorum knows nothing about with no-ops so the log prefix
  // becomes decidable, and re-propose every merged value at my round.
  for (Instance i = first_undecided(); i < next_free_; ++i) {
    if (is_decided(i) || promise_merge_.contains(i)) continue;
    promise_merge_[i] = Acceptor::AcceptedPair{kNoRound, Bytes{}};
  }
  for (auto& [i, pair] : promise_merge_) {
    if (is_decided(i)) continue;
    InFlight inf;
    inf.value = pair.value;
    inf.recovered = true;
    inf.acks.insert(self_);
    inf.sent_at = rt.now();
    acceptor_.on_accept(my_round_, i, inf.value);
    inflight_[i] = std::move(inf);
    accept_started_.try_emplace(i, rt.now());
    for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
      if (q != self_) send_accept(rt, q, i);
    }
  }
  promise_merge_.clear();

  assign_pending(rt);
}

void LogConsensus::assign_pending(Runtime& rt) {
  while (!pending_.empty() && window_open()) {
    Bytes value = std::move(pending_.front());
    pending_.pop_front();
    // A stale-ready leader's frontier can lag the decided log (a competing
    // leader decided instances this one merely learned); assigning a
    // decided slot would orphan the value — learn() for that instance
    // already ran and will never displace it back to pending_.
    while (is_decided(next_free_)) ++next_free_;
    Instance i = next_free_++;
    InFlight inf;
    inf.value = std::move(value);
    inf.acks.insert(self_);
    inf.sent_at = rt.now();
    acceptor_.on_accept(my_round_, i, inf.value);
    inflight_[i] = std::move(inf);
    accept_started_.try_emplace(i, rt.now());
    for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
      if (q != self_) send_accept(rt, q, i);
    }
  }
}

void LogConsensus::send_accept(Runtime& rt, ProcessId dst, Instance i) {
  const InFlight& inf = inflight_.at(i);
  // Borrow the in-flight value and encode into a pooled frame: the steady
  // state Phase-2 send allocates nothing.
  AcceptMsg msg{my_round_, i, commit_upto(), WireBlob::ref(inf.value),
                rt.now()};
  rt.send(dst, msg_type::kAccept, wire::encode_pooled(rt.pool(), msg).view());
}

void LogConsensus::retransmit(Runtime& rt) {
  // By age, not by tick: under load most ACCEPTs in flight at a tick were
  // sent within the last period and their ACCEPTEDs are still on the wire.
  // Re-sending those costs a duplicate ACCEPT and ACCEPTED per follower
  // that has not answered yet, holding the steady state above 2(n-1).
  const TimePoint now = rt.now();
  auto due = [&](TimePoint& sent_at) {
    if (now - sent_at < config_.retry_period) return false;
    sent_at = now;
    return true;
  };
  if (preparing_ && due(prepare_sent_at_)) {
    auto payload = wire::encode_pooled(
        rt.pool(), PrepareMsg{my_round_, prepare_from_, rt.now()});
    for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
      if (q != self_ && !promises_.contains(q)) {
        rt.send(q, msg_type::kPrepare, payload.view());
      }
    }
  }
  if (leader_ready_) {
    for (auto& [i, inf] : inflight_) {
      if (!due(inf.sent_at)) continue;
      for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
        if (q != self_ && !inf.acks.contains(q)) send_accept(rt, q, i);
      }
    }
    catch_up(rt);
  }
}

void LogConsensus::catch_up(Runtime& rt) {
  // A follower below the commit point of the previous tick had a full
  // retry period to learn it from commit_upto or the tail flush: its
  // watermark has stalled (a lost ACCEPT or DECIDE, or a dead process).
  // A follower that made progress since the last attempt gets a full
  // batch; one that did not gets a single probe, and the backoff doubles
  // up to the cap, so a dead follower costs O(1) messages per cap period
  // however long the log grows.
  //
  // A process that is not the ready leader pushes the leader it trusts
  // one DECIDE per attempt when the leader is not known to have what it
  // has decided. That leader can be stale: still ready at a round a rival
  // overtook while it was cut off, idle, so it never learns of the rival's
  // epoch and sends nothing that would be refused. In the steady state a
  // follower learns only from the leader, so it never pushes.
  const ProcessId leader = omega_->leader();
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    PeerProgress& f = peers_[static_cast<std::size_t>(q)];
    const bool target = leader_ready_ ? q != self_ : q == leader && q != self_;
    if (!target || f.decided_upto >= commit_at_last_tick_ ||
        rt.now() < f.retry_at) {
      continue;
    }
    send_decides(rt, q, f.decided_upto,
                 leader_ready_ && f.backoff == 1 ? kCatchupBatch : 1);
    f.retry_at = rt.now() + f.backoff * config_.retry_period;
    f.backoff = std::min(f.backoff * 2, kCatchupBackoffCap);
  }
  commit_at_last_tick_ = commit_upto();
}

void LogConsensus::flush_tail(Runtime& rt) {
  if (!inflight_.empty() || !pending_.empty()) return;
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    const PeerProgress& f = peers_[static_cast<std::size_t>(q)];
    if (q != self_ && f.backoff == 1) {
      send_decides(rt, q, std::max(f.decided_upto, f.sent_upto),
                   kCatchupBatch);
    }
  }
}

void LogConsensus::send_decides(Runtime& rt, ProcessId q, Instance from,
                                std::size_t limit) {
  // Below next_notify_ the log is gap-free; below log_base_ it is gone.
  Instance i = std::max(from, log_base_);
  for (; limit > 0 && i < commit_upto(); ++i, --limit) {
    rt.send(q, msg_type::kDecide,
            wire::encode_pooled(rt.pool(),
                                DecideMsg{i, WireBlob::ref(*decided_value(i))})
                .view());
  }
  PeerProgress& f = peers_[static_cast<std::size_t>(q)];
  f.sent_upto = std::max(f.sent_upto, i);
}

void LogConsensus::note_watermark(ProcessId q, Instance decided_upto) {
  if (static_cast<std::size_t>(q) >= peers_.size()) return;
  PeerProgress& f = peers_[static_cast<std::size_t>(q)];
  if (decided_upto <= f.decided_upto) return;
  f.decided_upto = decided_upto;
  f.retry_at = 0;
  f.backoff = 1;
}

void LogConsensus::advance_safe_point(Runtime& rt) {
  if (!leader_ready_) return;
  // Each watermark is a lower bound on what that peer has decided, and a
  // durable peer's prefix survives its restarts, so no live process and no
  // later candidate's PREPARE `from` falls below the minimum: the
  // prepare-side compaction guard never blocks a live candidate. Every
  // peer counts, responding or not — a silent one pins the point.
  Instance point = next_notify_;
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_) {
      point = std::min(point, peers_[static_cast<std::size_t>(q)].decided_upto);
    }
  }
  // Hints go out only in chunks, so while nothing is decided none do.
  if (point < safe_point_ + kCompactChunk) return;
  safe_point_ = point;
  auto payload = wire::encode_pooled(rt.pool(), CompactMsg{point});
  for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
    if (q != self_) rt.send(q, msg_type::kCompact, payload.view());
  }
}

void LogConsensus::abdicate() {
  if (leader_ready_ && rt_ != nullptr) {
    obs::Event e;
    e.type = obs::EventType::kEpochEnd;
    e.t = rt_->now();
    e.process = self_;
    e.a = static_cast<std::uint64_t>(my_round_);
    rt_->obs().bus().publish(e);
  }
  // Unfinished proposals go back to the pending queue; they will be
  // forwarded to the new leader (the new leader's Phase 1 may also recover
  // them, in which case byte-identical duplicates are pruned at decision
  // time).
  for (auto& [i, inf] : inflight_) {
    if (!owed_placement(inf)) continue;
    const Bytes* d = decided_value(i);
    // Undecided: still owed placement. Decided with a DIFFERENT value: the
    // slot was lost to a competing leader and the value is still owed
    // placement (a stale-ready leader can hold such an entry — see
    // assign_pending). Only a slot decided with this very value is done.
    if (!is_decided(i) || (d != nullptr && *d != inf.value)) {
      pending_.push_back(std::move(inf.value));
    }
  }
  inflight_.clear();
  promise_merge_.clear();
  promises_.clear();
  preparing_ = false;
  leader_ready_ = false;
}

void LogConsensus::learn(Runtime& rt, Instance i, BytesView value) {
  if (i < log_base_) return;  // compacted: decided long ago
  Instance rel = i - log_base_;
  if (rel >= log_.size()) log_.resize(rel + 1);
  if (log_[rel].has_value()) {
    if (!bytes_equal(*log_[rel], value)) {
      // Agreement tripwire: two different values decided for one instance
      // would falsify Paxos safety; fail loudly.
      throw std::logic_error("consensus agreement violated at instance " +
                             std::to_string(i));
    }
    // A duplicate decide can still owe displacement work: a stale-ready
    // leader may have assigned a value to this instance after the first
    // learn (see the decided-slot guard in assign_pending) — that value
    // still needs placement.
    retire_inflight(i, value);
    return;
  }
  log_[rel] = Bytes(value.begin(), value.end());
  // `value` may borrow this instance's accepted pair (handle_accept's commit
  // loop passes pair->value): re-point it at the stored entry before the
  // pair is dropped, so the retire and pending matches below read live
  // bytes.
  value = *log_[rel];
  acceptor_.forget(i);
  retire_inflight(i, value);
  if (auto it = accept_started_.find(i); it != accept_started_.end()) {
    // Close this instance's propose→decide span (proposer side only: the
    // start time exists only where the value was put in flight).
    const Duration span = rt.now() - it->second;
    if (decide_latency_ != nullptr) {
      decide_latency_->record(static_cast<double>(span) /
                              static_cast<double>(kMillisecond));
    }
    obs::Event e;
    e.type = obs::EventType::kSpanEnd;
    e.t = rt.now();
    e.process = self_;
    e.mtype = group_tag();  // shard + 1 inside a sharded container, else 0
    e.a = static_cast<std::uint64_t>(span);
    e.b = i;
    e.label = "consensus_instance";
    rt.obs().bus().publish(e);
    accept_started_.erase(it);
  }
  if (config_.durable) persist(rt);

  // The decided log is the completion signal for pending submissions.
  if (!value.empty()) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (bytes_equal(*it, value)) {
        pending_.erase(it);
        break;
      }
    }
  }

  while (next_notify_ < log_size() && decided_value(next_notify_) != nullptr) {
    const Bytes& v = *decided_value(next_notify_);
    Instance idx = next_notify_;
    ++next_notify_;
    notify_decision(rt, idx, v, group_tag());
  }

  // With a bounded pipelining window, a decision frees a slot: refill it
  // from the pending queue right away rather than waiting for the next
  // tick. Safe against re-entry — assign_pending never calls learn, and
  // the Phase-1 path (handle_promise) runs with leader_ready_ still false.
  if (config_.max_inflight != 0 && leader_ready_ && i_am_omega_leader() &&
      !pending_.empty()) {
    assign_pending(rt);
  }
}

void LogConsensus::retire_inflight(Instance i, BytesView value) {
  auto it = inflight_.find(i);
  if (it == inflight_.end()) return;
  const bool lost = !bytes_equal(it->second.value, value);
  // The instance decided against a different value: another leader won the
  // slot while ours was in flight (e.g. this proposer was partitioned when
  // it assigned the instance). The displaced value is still owed placement
  // — re-queue it for a fresh instance. It may end up decided twice if the
  // competing path also carried it; that is the documented at-least-once
  // contract, deduplicated by the replica layer.
  if (lost && owed_placement(it->second)) {
    pending_.push_back(std::move(it->second.value));
  }
  inflight_.erase(it);
  // Phase 1 rules out a lower round choosing another value here, so a
  // higher round did: this leader is stale. Followers may still hold this
  // round's pair for the slot, and its next ACCEPT's commit_upto would
  // make them learn that pair. Step down, as on a NACK, and re-prepare
  // above the rival.
  if (lost) abdicate();
}

void LogConsensus::on_message(Runtime& rt, ProcessId src, MessageType type,
                              BytesView payload) {
  switch (type) {
    case msg_type::kPrepare:
      handle_prepare(rt, src, PrepareMsg::decode(payload));
      break;
    case msg_type::kPromise:
      handle_promise(rt, src, PromiseMsg::decode(payload));
      break;
    case msg_type::kAccept:
      handle_accept(rt, src, AcceptMsg::decode(payload));
      break;
    case msg_type::kAccepted:
      handle_accepted(rt, src, AcceptedMsg::decode(payload));
      break;
    case msg_type::kNack:
      handle_nack(NackMsg::decode(payload));
      break;
    case msg_type::kDecide:
      handle_decide(rt, src, DecideMsg::decode(payload));
      break;
    case msg_type::kDecideAck:
      handle_decide_ack(rt, src, DecideAckMsg::decode(payload));
      break;
    case msg_type::kForward:
      handle_forward(src, ForwardMsg::decode(payload));
      break;
    case msg_type::kCompact:
      handle_compact(CompactMsg::decode(payload));
      break;
    default:
      break;
  }
}

void LogConsensus::handle_prepare(Runtime& rt, ProcessId src,
                                  const PrepareMsg& msg) {
  // Fence: while the supporting reply this acceptor last granted is alive,
  // help no other proposer — no promise, no NACK, no state change at all
  // (even updating highest_seen_round_ would leak the competitor into the
  // holder's epoch check). The window is bounded by the lease duration, so
  // a competitor's retransmit loop gets through once it lapses.
  if (fenced_against(src, rt.now())) return;
  // Compaction guard: a candidate whose log frontier is below our compaction
  // watermark is missing decisions whose values this acceptor can no longer
  // report (both the decided entry and the accepted pair are gone below
  // log_base_). Promising anyway would let it treat those slots as holes and
  // no-op-fill instances that were in fact decided — a quorum-invisible
  // agreement violation. Refusing keeps the intersection argument intact:
  // any quorum that does promise has every member's watermark <= msg.from,
  // so everything decided or accepted at >= msg.from is still reportable.
  // The candidate re-sends every retry period and gets through once the
  // current leader's watermark catch-up brings it past our watermark.
  // Compaction stays below the leader's safe point, the minimum decided
  // prefix over the whole group, so a live candidate never waits here.
  if (msg.from < log_base_) return;
  highest_seen_round_ = std::max(highest_seen_round_, msg.round);
  Round before = acceptor_.promised();
  if (!acceptor_.on_prepare(msg.round)) {
    rt.send(src, msg_type::kNack,
            wire::encode_pooled(rt.pool(),
                                NackMsg{msg.round, acceptor_.promised()})
                .view());
    return;
  }
  // The promise is durable state: persist before replying, as a real
  // acceptor must (a reply that outlives the promise breaks safety).
  if (config_.durable && acceptor_.promised() != before) persist(rt);
  if (msg.round > my_round_ && (preparing_ || leader_ready_)) abdicate();
  grant_fence(src, msg.round, rt.now());

  // The reply borrows acceptor/log state (stable until this callback
  // returns) and encodes into a pooled frame — no per-entry copies even
  // when the promise carries a long decided suffix.
  PromiseMsg reply;
  reply.round = msg.round;
  reply.echo_ts = msg.ts;
  for (const auto& [i, pair] : acceptor_.all_accepted()) {
    if (i < msg.from || is_decided(i)) continue;
    reply.entries.push_back(
        PromiseEntry{i, pair.round, false, WireBlob::ref(pair.value)});
  }
  for (Instance i = std::max(msg.from, log_base_); i < log_size(); ++i) {
    const Bytes* v = decided_value(i);
    if (v != nullptr) {
      reply.entries.push_back(PromiseEntry{i, kNoRound, true, WireBlob::ref(*v)});
    }
  }
  rt.send(src, msg_type::kPromise,
          wire::encode_pooled(rt.pool(), reply).view());
}

void LogConsensus::handle_promise(Runtime& rt, ProcessId src,
                                  const PromiseMsg& msg) {
  if (!preparing_ || msg.round != my_round_) return;
  record_support(src, msg.echo_ts);
  for (const auto& e : msg.entries) {
    if (e.decided) {
      learn(rt, e.instance, e.value.view());
      continue;
    }
    auto it = promise_merge_.find(e.instance);
    if (it == promise_merge_.end() || e.accepted_round > it->second.round) {
      // promise_merge_ outlives this delivery: materialize the borrow.
      promise_merge_[e.instance] =
          Acceptor::AcceptedPair{e.accepted_round, e.value.to_owned()};
    }
  }
  promises_.insert(src);
  if (static_cast<int>(promises_.size()) >= majority()) become_ready(rt);
}

void LogConsensus::handle_accept(Runtime& rt, ProcessId src,
                                 const AcceptMsg& msg) {
  // Same fence discipline as handle_prepare: a fenced acceptor is silent
  // toward everyone but the fence holder.
  if (fenced_against(src, rt.now())) return;
  note_watermark(src, msg.commit_upto);
  highest_seen_round_ = std::max(highest_seen_round_, msg.round);
  if (!acceptor_.on_accept(msg.round, msg.instance, msg.value.view())) {
    rt.send(src, msg_type::kNack,
            wire::encode_pooled(rt.pool(),
                                NackMsg{msg.round, acceptor_.promised()})
                .view());
    return;
  }
  // A retransmitted ACCEPT for an instance already learned: the promise
  // stands, but the decided entry makes the pair redundant.
  if (is_decided(msg.instance)) acceptor_.forget(msg.instance);
  if (config_.durable) persist(rt);  // accepted pair is durable state
  if (msg.round > my_round_ && (preparing_ || leader_ready_)) abdicate();
  grant_fence(src, msg.round, rt.now());

  // Pipelined commit: everything below commit_upto was decided by the
  // leader of this round; our accepted value at this same round for such an
  // instance is therefore the chosen value.
  for (Instance j = first_undecided(); j < msg.commit_upto; ++j) {
    if (is_decided(j)) continue;
    const auto* pair = acceptor_.accepted(j);
    if (pair != nullptr && pair->round == msg.round) learn(rt, j, pair->value);
  }
  // Reply after learning, so the reported watermark is current.
  rt.send(src, msg_type::kAccepted,
          wire::encode_pooled(rt.pool(), AcceptedMsg{msg.round, msg.instance,
                                                     msg.ts, next_notify_})
              .view());
}

void LogConsensus::handle_accepted(Runtime& rt, ProcessId src,
                                   const AcceptedMsg& msg) {
  note_watermark(src, msg.decided_upto);
  advance_safe_point(rt);
  if (!leader_ready_ || msg.round != my_round_) return;
  // Even an ack for an already-decided instance renews the support — the
  // follower granted (and fenced) it either way.
  record_support(src, msg.echo_ts);
  if (auto it = inflight_.find(msg.instance); it != inflight_.end()) {
    it->second.acks.insert(src);
    if (static_cast<int>(it->second.acks.size()) < majority()) return;
    Bytes value = std::move(it->second.value);
    inflight_.erase(it);
    learn(rt, msg.instance, value);
  }
  // No DECIDE fan-out: the next ACCEPT's commit_upto commits at every
  // follower. Only the idle tail, which no ACCEPT follows, is flushed.
  flush_tail(rt);
}

void LogConsensus::handle_nack(const NackMsg& msg) {
  highest_seen_round_ = std::max(highest_seen_round_, msg.promised_round);
  if (msg.rejected_round == my_round_ && (preparing_ || leader_ready_)) {
    // Outpaced by a higher ballot: step back; the next tick re-prepares
    // with a higher ballot if Omega still trusts this process.
    abdicate();
  }
}

void LogConsensus::handle_decide(Runtime& rt, ProcessId src,
                                 const DecideMsg& msg) {
  // A DECIDE is only ever sent below the sender's decided prefix.
  note_watermark(src, msg.instance + 1);
  learn(rt, msg.instance, msg.value.view());
  // The ack reports this process's watermark, not the instance.
  rt.send(src, msg_type::kDecideAck,
          wire::encode_pooled(rt.pool(), DecideAckMsg{next_notify_}).view());
}

void LogConsensus::handle_decide_ack(Runtime& rt, ProcessId src,
                                     const DecideAckMsg& msg) {
  note_watermark(src, msg.instance);
  advance_safe_point(rt);
}

void LogConsensus::handle_compact(const CompactMsg& msg) {
  // Whoever computed it, the point was a bound on every prefix when it was
  // sent, and prefixes only grow.
  safe_point_ = std::max(safe_point_, msg.upto);
}

Instance LogConsensus::compact(Instance upto) {
  // Clamp to what is decided locally; never move backwards.
  upto = std::min(upto, next_notify_);
  if (upto <= log_base_) return log_base_;
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(upto - log_base_));
  log_base_ = upto;
  acceptor_.forget_upto(upto);
  if (config_.durable && rt_ != nullptr) persist(*rt_);
  return log_base_;
}

// ---------------------------------------------------------------------------
// Leader lease (DESIGN.md §14).
// ---------------------------------------------------------------------------

bool LogConsensus::lease_valid() const {
  if (!config_.lease.enabled || rt_ == nullptr) return false;
  if (!leader_ready_ || !i_am_omega_leader()) return false;
  const TimePoint now = rt_->now();
  // Fast-invalidation hint from the oracle, when it grants one: an expired
  // omega lease means our heartbeats stopped proving liveness; stop serving
  // local reads even if quorum supports have residual time.
  if (auto hint = omega_->lease_until(); hint.has_value() && *hint <= now) {
    return false;
  }
  if (config_.lease.unsafe_skip_fence) {
    // Sabotage self-test: bare self-belief stands in for the quorum lease.
    // Unsound by construction — the lease_test campaign proves the
    // linearizability checker catches what this serves.
    return true;
  }
  // Epoch fence: any observed higher round means a competitor got through a
  // quorum we thought was fenced; abdication is imminent — never serve a
  // read in the gap. (Belt to the supporters check's braces.)
  if (highest_seen_round_ > my_round_) return false;
  // Freshness gate: until the epoch-start prefix is fully learned, local
  // state may miss writes a predecessor decided.
  if (next_notify_ < ready_watermark_) return false;
  return lease_supporters() >= majority();
}

int LogConsensus::lease_supporters() const {
  if (rt_ == nullptr || !leader_ready_) return 0;
  const TimePoint now = rt_->now();
  // Self counts unconditionally: our own acceptor helping a competitor
  // abdicates us synchronously, which is a stronger guarantee than any
  // timed fence.
  int supporters = 1;
  for (std::size_t q = 0; q < support_until_.size(); ++q) {
    if (static_cast<ProcessId>(q) == self_) continue;
    if (support_until_[q] > now + config_.lease.clock_margin) ++supporters;
  }
  return supporters;
}

void LogConsensus::grant_fence(ProcessId src, Round round, TimePoint now) {
  if (!config_.lease.enabled) return;
  fence_holder_ = src;
  fence_round_ = round;
  fence_until_ = now + config_.lease.duration;
}

void LogConsensus::record_support(ProcessId q, TimePoint echo_ts) {
  if (!config_.lease.enabled) return;
  if (static_cast<std::size_t>(q) >= support_until_.size()) return;
  // echo_ts is OUR clock at the original send — earlier in real time than
  // the follower's fence anchor, so echo_ts + duration is a conservative
  // bound on that fence's expiry. max(): a stale echo never shortens.
  support_until_[q] =
      std::max(support_until_[q], echo_ts + config_.lease.duration);
}

void LogConsensus::sample_lease_span(Runtime& rt) {
  const bool valid = lease_valid();
  if (valid && !lease_was_valid_) {
    lease_span_start_ = rt.now();
  } else if (!valid && lease_was_valid_) {
    obs::Event e;
    e.type = obs::EventType::kSpanEnd;
    e.t = rt.now();
    e.process = self_;
    e.mtype = group_tag();
    e.a = static_cast<std::uint64_t>(rt.now() - lease_span_start_);
    e.b = static_cast<std::uint64_t>(my_round_);
    e.label = "lease_held";
    rt.obs().bus().publish(e);
  }
  lease_was_valid_ = valid;
}

void LogConsensus::handle_forward(ProcessId, const ForwardMsg& msg) {
  // Deduplicate against everything already seen: queued, in flight, decided.
  for (const Bytes& v : pending_) {
    if (v == msg.value) return;
  }
  for (const auto& [i, inf] : inflight_) {
    if (inf.value == msg.value) return;
  }
  for (const auto& slot : log_) {
    if (slot.has_value() && *slot == msg.value) return;
  }
  // (Values compacted away cannot be matched any more; the origin's retry
  // loop stops as soon as it observes the decision, which by the compaction
  // contract it already has.)
  pending_.push_back(msg.value.to_owned());
  // Eager dispatch: a ready leader starts Phase 2 for the new value now.
  if (rt_ != nullptr && leader_ready_ && i_am_omega_leader()) {
    assign_pending(*rt_);
  }
}

}  // namespace lls
