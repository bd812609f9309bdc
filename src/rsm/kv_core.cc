#include "rsm/kv_core.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/storage.h"

namespace lls {

namespace {
Bytes encode_single_command(const Command& cmd) {
  CommandBatch batch;
  batch.commands.push_back(cmd);
  return batch.encode();
}
}  // namespace

KvCore::KvCore(const KvCoreOptions& options)
    : config_(options.replica),
      omega_(options.omega),
      consensus_(options.consensus, options.omega),
      durable_(options.consensus.durable) {
  if (options.consensus.shard >= 0) {
    group_tag_ = static_cast<std::uint16_t>(options.consensus.shard + 1);
    shard_ = static_cast<ShardId>(options.consensus.shard);
  }
}

KvCore::~KvCore() {
  if (accepted_pairs_gauge_ == nullptr) return;  // never started
  accepted_pairs_gauge_->add(-static_cast<double>(published_.accepted_pairs));
  log_entries_gauge_->add(-static_cast<double>(published_.log_entries));
  dedup_entries_gauge_->add(-static_cast<double>(published_.dedup_entries));
  cached_results_gauge_->add(-static_cast<double>(published_.cached_results));
}

void KvCore::on_start(Runtime& rt) {
  self_ = rt.id();
  rt_ = &rt;
  cluster_n_ = config_.cluster_n > 0 ? config_.cluster_n : rt.n();
  // Plane-wide fast-path economy counters (all cores of all processes share
  // them — the aggregate is what the benches assert on).
  obs::Registry& registry = rt.obs().registry();
  reads_local_ctr_ = &registry.counter("kv_reads_local");
  reads_ordered_ctr_ = &registry.counter("kv_reads_ordered");
  compactions_ctr_ = &registry.counter("consensus.compactions");
  accepted_pairs_gauge_ = &registry.gauge("consensus.accepted_pairs_held");
  log_entries_gauge_ = &registry.gauge("consensus.log_entries_held");
  dedup_entries_gauge_ = &registry.gauge("rsm.dedup_entries");
  cached_results_gauge_ = &registry.gauge("rsm.cached_results");
  // Subscribe to decisions before the engine starts: a durable consensus
  // log re-publishes the restored prefix from within on_start, and those
  // events must reach this core. The bus is plane-wide (shared by every
  // process in a simulation) and, in a sharded container, also shared by
  // every co-located group — filter on the emitting process AND the group
  // tag.
  decide_sub_ = rt.obs().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide), [this](const obs::Event& e) {
        if (e.process == self_ && e.mtype == group_tag_) {
          on_decided(e.a, e.payload);
        }
      });
  // Restore the store snapshot (if any) BEFORE the consensus engine starts:
  // a durable engine re-publishes its surviving decided suffix from within
  // on_start, and snapshot_skip_ must already cover the compacted prefix.
  if (durable_) restore_snapshot(rt);
  consensus_.on_start(rt);
  publish_held_state();
}

void KvCore::on_message(Runtime& rt, ProcessId src, MessageType type,
                        BytesView payload) {
  if (type == msg_type::kClientRequest) {
    handle_client_request(rt, src, payload);
    return;
  }
  if (type == msg_type::kClientRequestBatch) {
    handle_client_batch(rt, src, payload);
    return;
  }
  if (type >= msg_type::kConsensusBase && type <= (msg_type::kConsensusBase | 0x00ff)) {
    consensus_.on_message(rt, src, type, payload);
    compact_to_safe_point();
  }
}

void KvCore::on_timer(Runtime& rt, TimerId timer) {
  if (timer == flush_timer_) {
    flush_timer_ = kInvalidTimer;
    flush_batch();
    return;
  }
  // Not ours: the consensus engine checks the id against its own timer.
  consensus_.on_timer(rt, timer);
  compact_to_safe_point();
}

std::uint64_t KvCore::submit(KvOp op, std::string key, std::string value,
                             std::string expected, Callback cb) {
  if (!seq_initialized_) {
    next_seq_ = initial_seq_ ? initial_seq_() : 1;
    seq_initialized_ = true;
  }
  if (config_.lease_reads && op == KvOp::kGet) {
    // Lease fast path for local submissions: a valid lease certifies no
    // other proposer can commit concurrently, so the local store is the
    // linearizable truth — answer synchronously, zero messages, zero
    // instances. The sequence number is still burned so callers correlate
    // as usual. Invalid lease -> the ordinary ordered path below.
    // Under fifo_client_order the fast path must not jump queued same-
    // session commands (a read overtaking the caller's own unapplied write
    // would break per-client program order), so it only fires when nothing
    // is queued or outstanding.
    const bool fifo_blocked =
        config_.fifo_client_order && (outstanding_ || !session_queue_.empty());
    if (!fifo_blocked && consensus_.lease_valid()) {
      ++reads_local_;
      if (reads_local_ctr_ != nullptr) reads_local_ctr_->inc();
      std::uint64_t seq = next_seq_++;
      KvResult result = local_read(key);
      if (cb) cb(result);
      return seq;
    }
    ++reads_ordered_;
    if (reads_ordered_ctr_ != nullptr) reads_ordered_ctr_->inc();
  }
  Command cmd;
  cmd.origin = self_;
  cmd.seq = next_seq_++;
  cmd.op = op;
  cmd.key = std::move(key);
  cmd.value = std::move(value);
  cmd.expected = std::move(expected);
  cmd.read_only = config_.lease_reads && op == KvOp::kGet;
  if (cb) callbacks_[cmd.seq] = std::move(cb);

  if (config_.fifo_client_order) {
    session_queue_.push_back(std::move(cmd));
    pump_session_queue();
  } else {
    enqueue_for_consensus(std::move(cmd));
  }
  return next_seq_ - 1;
}

void KvCore::enqueue_for_consensus(Command cmd) {
  if (config_.max_batch > 1) {
    batch_.push_back(std::move(cmd));
    if (batch_.size() >= config_.max_batch) {
      flush_batch();
    } else if (flush_timer_ == kInvalidTimer && rt_ != nullptr) {
      flush_timer_ = rt_->set_timer(config_.batch_flush_delay);
    }
  } else {
    consensus_.propose(encode_single_command(cmd));
  }
}

void KvCore::enqueue_commands(std::vector<Command> cmds) {
  if (cmds.empty()) return;
  if (config_.max_batch > 1) {
    for (Command& cmd : cmds) enqueue_for_consensus(std::move(cmd));
    return;
  }
  // Batching off: still propose a coalesced burst as ONE value — these
  // commands arrived in one network message, so collapsing their instance
  // cost is free (no added latency, no held-back singles).
  CommandBatch batch;
  batch.commands = std::move(cmds);
  consensus_.propose(batch.encode());
}

void KvCore::flush_batch() {
  if (batch_.empty()) return;
  CommandBatch batch;
  batch.commands = std::move(batch_);
  batch_.clear();
  consensus_.propose(batch.encode());
  if (flush_timer_ != kInvalidTimer && rt_ != nullptr) {
    rt_->cancel_timer(flush_timer_);
    flush_timer_ = kInvalidTimer;
  }
}

void KvCore::pump_session_queue() {
  if (outstanding_ || session_queue_.empty()) return;
  outstanding_ = true;
  consensus_.propose(encode_single_command(session_queue_.front()));
  session_queue_.pop_front();
}

std::optional<Command> KvCore::admit_one(Runtime& rt, ProcessId src,
                                         BytesView command_blob) {
  Command cmd = Command::decode(command_blob);
  const std::uint64_t seq = cmd.seq;
  if (cmd.origin != src || seq == 0) {
    return std::nullopt;  // malformed or impersonating another session: drop
  }
  {
    obs::Event e;
    e.type = obs::EventType::kClientRequest;
    e.t = rt.now();
    e.process = self_;
    e.peer = src;
    e.a = seq;
    e.payload = command_blob;  // encoded Command, for history recorders
    rt.obs().bus().publish(e);
  }

  ClientSessionSrv& sess = clients_[src];
  prune_results(sess, cmd.ack_upto);

  auto hit = sess.results.find(seq);
  if (hit != sess.results.end()) {
    // Applied already (possibly admitted by a previous leader): re-answer
    // from the cache instead of re-executing — the exactly-once reply path.
    ++cached_replies_sent_;
    send_reply(src, seq, hit->second);
    return std::nullopt;
  }
  if (seq <= sess.ack_upto) return std::nullopt;  // acked and pruned: stale

  if (cmd.op == KvOp::kGet && cmd.read_only) {
    // Client-marked read-only command: under a valid lease, answer from
    // local state — no admission slot, no consensus instance, no
    // inter-replica message. Not cached in sess.results: a retried read is
    // idempotent and simply re-serves (fast or ordered, whichever the lease
    // allows then).
    if (consensus_.lease_valid()) {
      ++reads_local_;
      if (reads_local_ctr_ != nullptr) reads_local_ctr_->inc();
      send_reply(src, seq, local_read(cmd.key));
      return std::nullopt;
    }
    // Lease miss: the read takes the ordered path — but it is counted only
    // below, once this replica actually admits it for ordering. Counting
    // here would tally redirected (and busy-bounced) reads at every replica
    // the client tries, double-counting the fast-path-economy numbers.
  }

  if (omega_->leader() != self_) {
    ++redirects_sent_;
    rt.send(src, msg_type::kClientRedirect,
            wire::encode_pooled(rt.pool(),
                                ClientRedirectMsg{omega_->leader(), shard_})
                .view());
    return std::nullopt;
  }
  if (sess.admitted.count(seq) != 0) {
    return std::nullopt;  // already queued; the reply fires on apply
  }
  if (admitted_inflight_ >= config_.admit_high_water) {
    ++busy_sent_;
    ClientBusyMsg busy;
    busy.seq = seq;
    busy.queue = static_cast<std::uint32_t>(admitted_inflight_);
    rt.send(src, msg_type::kClientBusy,
            wire::encode_pooled(rt.pool(), busy).view());
    return std::nullopt;
  }
  sess.admitted.insert(seq);
  ++admitted_inflight_;
  if (cmd.op == KvOp::kGet && cmd.read_only) {
    ++reads_ordered_;
    if (reads_ordered_ctr_ != nullptr) reads_ordered_ctr_->inc();
  }
  return cmd;
}

void KvCore::handle_client_request(Runtime& rt, ProcessId src,
                                   BytesView payload) {
  if (!is_client(src)) return;  // replicas do not speak the client protocol
  ClientRequestMsg req = ClientRequestMsg::decode(payload);
  auto cmd = admit_one(rt, src, req.command.view());
  if (cmd.has_value()) enqueue_for_consensus(std::move(*cmd));
}

void KvCore::handle_client_batch(Runtime& rt, ProcessId src,
                                 BytesView payload) {
  if (!is_client(src)) return;
  ClientRequestBatchMsg req = ClientRequestBatchMsg::decode(payload);
  std::vector<Command> fresh;
  fresh.reserve(req.items.size());
  for (const auto& item : req.items) {
    auto cmd = admit_one(rt, src, item.command.view());
    if (cmd.has_value()) fresh.push_back(std::move(*cmd));
  }
  enqueue_commands(std::move(fresh));
}

KvResult KvCore::local_read(const std::string& key) const {
  // Mirrors KvStore::apply's kGet semantics exactly, without counting as an
  // application (the command was never ordered).
  KvResult result;
  auto it = store_.data().find(key);
  result.found = it != store_.data().end();
  result.ok = result.found;
  if (result.found) result.value = it->second;
  return result;
}

void KvCore::send_reply(ProcessId client, std::uint64_t seq,
                        const KvResult& result) {
  ClientReplyMsg reply;
  reply.seq = seq;
  reply.ok = result.ok;
  reply.found = result.found;
  reply.value = result.value;
  ++client_replies_sent_;
  auto encoded = wire::encode_pooled(rt_->pool(), reply);
  {
    obs::Event e;
    e.type = obs::EventType::kClientReply;
    e.t = rt_->now();
    e.process = self_;
    e.peer = client;
    e.a = seq;
    e.payload = encoded.view();  // encoded ClientReplyMsg, for recorders
    rt_->obs().bus().publish(e);
  }
  rt_->send(client, msg_type::kClientReply, encoded.view());
}

void KvCore::on_decided(Instance i, BytesView value) {
  if (i + 1 > applied_upto_) applied_upto_ = i + 1;
  if (i < snapshot_skip_) return;  // already folded into the snapshot
  if (value.empty()) return;       // consensus no-op filler
  CommandBatch batch = CommandBatch::decode(value);
  for (const Command& cmd : batch.commands) apply_command(cmd);
  publish_held_state();
}

void KvCore::compact_to_safe_point() {
  const Instance point = std::min(consensus_.safe_point(), applied_upto_);
  if (point < consensus_.compacted_upto() + LogConsensus::kCompactTail +
                  LogConsensus::kCompactChunk) {
    return;
  }
  compact_to(point - LogConsensus::kCompactTail);
}

Instance KvCore::compact_to(Instance upto) {
  upto = std::min(upto, applied_upto_);
  const Instance before = consensus_.compacted_upto();
  if (upto <= before) return before;
  // Snapshot first: once the log prefix is gone, the snapshot is the only
  // durable copy of its effects. Snapshot the full applied watermark even
  // though compact() may clamp lower — replayed decisions below the
  // snapshot are skipped, never double-applied.
  if (durable_ && rt_ != nullptr) persist_snapshot(*rt_);
  if (durable_) snapshot_skip_ = applied_upto_;
  const Instance compacted = consensus_.compact(upto);
  if (compacted > before && compactions_ctr_ != nullptr) {
    compactions_ctr_->inc();
  }
  publish_held_state();
  return compacted;
}

std::string KvCore::snapshot_key() const {
  return "kv_core/snapshot/" + std::to_string(group_tag_);
}

void KvCore::persist_snapshot(Runtime& rt) const {
  StableStorage* storage = rt.storage();
  if (storage == nullptr) {
    throw std::logic_error("durable KvCore snapshot requires Runtime::storage()");
  }
  // Exact-size single allocation (the snapshot can be large; growing a
  // BufWriter through doublings would copy it several times over).
  std::size_t size = sizeof(applied_upto_) + sizeof(store_.applied()) + 4;
  for (const auto& [key, value] : store_.data()) {
    size += 4 + key.size() + 4 + value.size();
  }
  size += 4;
  for (const auto& [origin, dedup] : applied_) {
    size += sizeof(ProcessId) + sizeof(dedup.upto) + 4 +
            dedup.above.size() * sizeof(std::uint64_t);
  }
  Bytes out(size);
  FlatWriter w(out);
  w.put(applied_upto_);
  w.put(store_.applied());
  w.put(static_cast<std::uint32_t>(store_.data().size()));
  for (const auto& [key, value] : store_.data()) {  // map order: deterministic
    w.put_string(key);
    w.put_string(value);
  }
  // The dedup state is part of the state machine: without it, a command
  // decided below the snapshot AND re-decided above it (leader-change
  // at-least-once) would re-apply after recovery. Per origin, its watermark
  // and the sparse seqs above it: O(sessions x window), whatever the number
  // of ops applied. Origins sorted for determinism; each set is ordered.
  std::vector<ProcessId> origins;
  origins.reserve(applied_.size());
  for (const auto& [origin, dedup] : applied_) origins.push_back(origin);
  std::sort(origins.begin(), origins.end());
  w.put(static_cast<std::uint32_t>(origins.size()));
  for (ProcessId origin : origins) {
    const Dedup& dedup = applied_.at(origin);
    w.put(origin);
    w.put(dedup.upto);
    w.put(static_cast<std::uint32_t>(dedup.above.size()));
    for (std::uint64_t x : dedup.above) w.put(x);
  }
  storage->write(snapshot_key(), out);
}

void KvCore::restore_snapshot(Runtime& rt) {
  StableStorage* storage = rt.storage();
  if (storage == nullptr) return;  // volatile runtime: nothing to restore
  auto blob = storage->read(snapshot_key());
  if (!blob.has_value()) return;  // never compacted durably
  BufReader r(*blob);
  snapshot_skip_ = r.get<Instance>();
  applied_upto_ = snapshot_skip_;
  const auto store_applied = r.get<std::uint64_t>();
  auto entries = r.get<std::uint32_t>();
  std::map<std::string, std::string> data;
  while (entries-- > 0) {
    std::string key = r.get_string();
    data[std::move(key)] = r.get_string();
  }
  store_.restore(std::move(data), store_applied);
  auto origins = r.get<std::uint32_t>();
  while (origins-- > 0) {
    auto origin = r.get<ProcessId>();
    Dedup& dedup = applied_[origin];
    dedup.upto = r.get<std::uint64_t>();
    auto seqs = r.get_vec<std::uint64_t>();
    dedup.above.insert(seqs.begin(), seqs.end());
    dedup_entries_ += dedup.above.size();
  }
}

bool KvCore::Dedup::insert(std::uint64_t seq) {
  if (contains(seq)) return false;
  above.insert(seq);
  absorb();
  return true;
}

void KvCore::Dedup::raise(std::uint64_t w) {
  if (w <= upto) return;
  upto = w;
  above.erase(above.begin(), above.upper_bound(upto));
  absorb();
}

void KvCore::Dedup::absorb() {
  while (!above.empty() && *above.begin() == upto + 1) {
    above.erase(above.begin());
    ++upto;
  }
}

void KvCore::prune_results(ClientSessionSrv& sess, std::uint64_t ack_upto) {
  if (ack_upto <= sess.ack_upto) return;
  sess.ack_upto = ack_upto;
  const auto end = sess.results.upper_bound(ack_upto);
  cached_results_ -= static_cast<std::size_t>(
      std::distance(sess.results.begin(), end));
  sess.results.erase(sess.results.begin(), end);
}

KvHeldState KvCore::held_state() const {
  KvHeldState held;
  held.accepted_pairs = consensus_.accepted_pairs_held();
  held.log_entries = consensus_.log_entries_held();
  held.dedup_entries = dedup_entries_;
  held.cached_results = cached_results_;
  return held;
}

void KvCore::publish_held_state() {
  const KvHeldState now = held_state();
  auto move = [](obs::Gauge* gauge, std::size_t from, std::size_t to) {
    gauge->add(static_cast<double>(to) - static_cast<double>(from));
  };
  move(accepted_pairs_gauge_, published_.accepted_pairs, now.accepted_pairs);
  move(log_entries_gauge_, published_.log_entries, now.log_entries);
  move(dedup_entries_gauge_, published_.dedup_entries, now.dedup_entries);
  move(cached_results_gauge_, published_.cached_results, now.cached_results);
  published_ = now;
}

void KvCore::apply_command(const Command& cmd) {
  Dedup& dedup = applied_[cmd.origin];
  const std::size_t held_before = dedup.above.size();
  if (!dedup.insert(cmd.seq)) {
    ++duplicates_;
    // A duplicate instance of a command this replica also admitted: the
    // first instance already answered, so only release the window slot.
    if (is_client(cmd.origin)) {
      auto it = clients_.find(cmd.origin);
      if (it != clients_.end() && it->second.admitted.erase(cmd.seq) > 0) {
        --admitted_inflight_;
      }
    }
    return;  // at-least-once from consensus -> exactly-once here
  }
  // Everything the origin had acked when it created this command is
  // applied at an earlier log position, or is a timed-out op to drop: at
  // or below the watermark from here on, at every replica alike.
  if (cmd.seq > 0) dedup.raise(std::min(cmd.ack_upto, cmd.seq - 1));
  dedup_entries_ += dedup.above.size();
  dedup_entries_ -= held_before;
  KvResult result = store_.apply(cmd);
  if (rt_ != nullptr) {
    obs::Event e;
    e.type = obs::EventType::kApply;
    e.t = rt_->now();
    e.process = self_;
    e.peer = cmd.origin;
    e.a = cmd.seq;
    rt_->obs().bus().publish(e);
  }
  if (is_client(cmd.origin)) {
    ClientSessionSrv& sess = clients_[cmd.origin];
    prune_results(sess, cmd.ack_upto);
    if (cmd.seq > sess.ack_upto &&
        sess.results.insert_or_assign(cmd.seq, result).second) {
      ++cached_results_;
      if (sess.results.size() > config_.results_cap) {
        sess.results.erase(sess.results.begin());
        --cached_results_;
      }
    }
    if (sess.admitted.erase(cmd.seq) > 0) {
      --admitted_inflight_;
      send_reply(cmd.origin, cmd.seq, result);
    }
    return;
  }
  if (cmd.origin == self_) {
    auto it = callbacks_.find(cmd.seq);
    if (it != callbacks_.end()) {
      Callback cb = std::move(it->second);
      callbacks_.erase(it);
      cb(result);
    }
    if (config_.fifo_client_order) {
      outstanding_ = false;
      pump_session_queue();
    }
  }
}

}  // namespace lls
