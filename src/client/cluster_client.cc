#include "client/cluster_client.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lls {

void ClusterClient::on_start(Runtime& rt) {
  if (config_.cluster_n <= 0) {
    throw std::logic_error("ClusterClientConfig::cluster_n must be set");
  }
  if (config_.shards < 1) {
    throw std::logic_error("ClusterClientConfig::shards must be >= 1");
  }
  self_ = rt.id();
  rt_ = &rt;
  map_ = ShardMap(config_.shards);
  // First probe spread across replicas so a client swarm does not hammer
  // replica 0; redirects converge everyone onto the leader(s).
  shard_target_.assign(
      static_cast<std::size_t>(config_.shards),
      static_cast<ProcessId>(static_cast<int>(self_) % config_.cluster_n));
}

std::uint64_t ClusterClient::submit(KvOp op, std::string key, std::string value,
                                    std::string expected, Callback cb) {
  Command cmd;
  cmd.op = op;
  cmd.key = std::move(key);
  cmd.value = std::move(value);
  cmd.expected = std::move(expected);
  return enqueue_command(std::move(cmd), std::move(cb));
}

std::uint64_t ClusterClient::get(std::string key, Callback cb) {
  Command cmd;
  cmd.op = KvOp::kGet;
  cmd.key = std::move(key);
  // The read-only mark is what licenses a leaseholder to answer locally;
  // without it (lease_reads off) this is an ordinary ordered kGet.
  cmd.read_only = config_.lease_reads;
  return enqueue_command(std::move(cmd), std::move(cb));
}

std::uint64_t ClusterClient::enqueue_command(Command cmd, Callback cb) {
  if (rt_ == nullptr) {
    throw std::logic_error("ClusterClient::submit before on_start");
  }
  InFlight f;
  f.cmd = std::move(cmd);
  f.cmd.origin = self_;
  f.cmd.seq = session_.next_seq();
  f.shard = map_.shard_of(f.cmd.key);
  f.cb = std::move(cb);
  f.invoked = rt_->now();
  std::uint64_t seq = f.cmd.seq;
  queue_.push_back(std::move(f));
  pump(*rt_);
  return seq;
}

void ClusterClient::pump(Runtime& rt) {
  while (inflight_.size() < config_.window && !queue_.empty()) {
    InFlight f = std::move(queue_.front());
    queue_.pop_front();
    // Stamp the watermark as the command enters the window: everything at
    // or below it has completed before this command exists, which is what
    // lets replicas prune at its log position. Encoded once, so every
    // retry is byte-identical.
    f.cmd.ack_upto = session_.ack_upto();
    f.encoded = f.cmd.encode();
    auto [it, inserted] = inflight_.emplace(f.cmd.seq, std::move(f));
    (void)inserted;
    mark_for_send(rt, it->second);
  }
}

void ClusterClient::mark_for_send(Runtime& rt, InFlight& f) {
  if (!config_.coalesce) {
    send_attempt(rt, f);
    return;
  }
  // Defer to a same-timestamp flush: everything marked in this execution
  // turn (a submission burst, a redirect resend, a batch of due retries)
  // leaves in one message per destination.
  pending_send_.insert(f.cmd.seq);
  if (send_timer_ == kInvalidTimer) send_timer_ = rt.set_timer(0);
}

void ClusterClient::note_attempt(Runtime& rt, InFlight& f) {
  ++f.attempts;
  if (f.attempts > 1) ++retries_;
  Duration jitter =
      f.backoff > 0 ? rt.rng().next_range(0, f.backoff / 2) : 0;
  f.next_attempt = rt.now() + config_.attempt_timeout + f.backoff + jitter;
}

void ClusterClient::send_attempt(Runtime& rt, InFlight& f) {
  // Borrow the cached encoding (stable across retries) and frame it in a
  // pooled buffer: a retry allocates nothing.
  ClientRequestMsg req{WireBlob::ref(f.encoded)};
  rt.send(shard_target_[f.shard], msg_type::kClientRequest,
          wire::encode_pooled(rt.pool(), req).view());
  note_attempt(rt, f);
  arm_tick(rt);
}

void ClusterClient::flush_sends(Runtime& rt) {
  // Group marked requests by their shard's believed leader; one wire
  // message per destination. Iteration is seq-ordered (std::set), so batch
  // contents are deterministic.
  std::map<ProcessId, std::vector<InFlight*>> by_dst;
  for (std::uint64_t seq : pending_send_) {
    auto it = inflight_.find(seq);
    if (it == inflight_.end()) continue;  // completed before the flush
    by_dst[shard_target_[it->second.shard]].push_back(&it->second);
  }
  pending_send_.clear();
  for (auto& [dst, requests] : by_dst) {
    if (requests.size() == 1) {
      InFlight& f = *requests.front();
      ClientRequestMsg req{WireBlob::ref(f.encoded)};
      rt.send(dst, msg_type::kClientRequest,
              wire::encode_pooled(rt.pool(), req).view());
      note_attempt(rt, f);
      continue;
    }
    ClientRequestBatchMsg batch;
    batch.items.reserve(requests.size());
    for (InFlight* f : requests) {
      batch.items.push_back({WireBlob::ref(f->encoded)});
      note_attempt(rt, *f);
    }
    rt.send(dst, msg_type::kClientRequestBatch,
            wire::encode_pooled(rt.pool(), batch).view());
    ++batches_sent_;
    batched_requests_ += requests.size();
  }
  if (!inflight_.empty()) arm_tick(rt);
}

void ClusterClient::resend_all(Runtime& rt) {
  for (auto& [seq, f] : inflight_) mark_for_send(rt, f);
}

void ClusterClient::rotate_targets() {
  // No reply from anyone we talk to: advance every shard's probe. (Shards
  // sharing a leader — today's container — advance in lockstep, matching
  // the old single-target behavior.)
  for (ProcessId& t : shard_target_) {
    t = static_cast<ProcessId>((static_cast<int>(t) + 1) % config_.cluster_n);
  }
  since_progress_ = 0;
  ++rotations_;
}

void ClusterClient::bump_backoff(Runtime& rt, InFlight& f) {
  f.backoff = f.backoff == 0
                  ? config_.backoff_base
                  : std::min(config_.backoff_max, f.backoff * 2);
  Duration jitter = rt.rng().next_range(0, f.backoff / 2);
  f.next_attempt = rt.now() + config_.attempt_timeout + f.backoff + jitter;
}

void ClusterClient::arm_tick(Runtime& rt) {
  if (tick_timer_ == kInvalidTimer) {
    tick_timer_ = rt.set_timer(config_.tick);
  }
}

void ClusterClient::on_timer(Runtime& rt, TimerId timer) {
  if (timer == send_timer_) {
    send_timer_ = kInvalidTimer;
    flush_sends(rt);
    return;
  }
  if (timer != tick_timer_) return;
  tick_timer_ = kInvalidTimer;
  const TimePoint now = rt.now();
  // Collect due seqs first: completion mutates inflight_.
  std::vector<std::uint64_t> due;
  for (auto& [seq, f] : inflight_) {
    if (f.next_attempt <= now) due.push_back(seq);
  }
  for (std::uint64_t seq : due) {
    auto it = inflight_.find(seq);
    if (it == inflight_.end()) continue;
    InFlight& f = it->second;
    if (config_.request_deadline > 0 &&
        now - f.invoked >= config_.request_deadline) {
      complete(rt, seq, nullptr);
      continue;
    }
    ++since_progress_;
    if (since_progress_ >= config_.rotate_after) rotate_targets();
    bump_backoff(rt, f);
    mark_for_send(rt, f);
  }
  if (!inflight_.empty()) arm_tick(rt);
}

void ClusterClient::on_message(Runtime& rt, ProcessId src, MessageType type,
                               BytesView payload) {
  if (src >= static_cast<ProcessId>(config_.cluster_n)) return;
  switch (type) {
    case msg_type::kClientReply:
      handle_reply(rt, ClientReplyMsg::decode(payload));
      return;
    case msg_type::kClientRedirect:
      handle_redirect(rt, ClientRedirectMsg::decode(payload));
      return;
    case msg_type::kClientBusy:
      handle_busy(rt, ClientBusyMsg::decode(payload));
      return;
    default:
      return;
  }
}

void ClusterClient::handle_reply(Runtime& rt, const ClientReplyMsg& msg) {
  since_progress_ = 0;
  complete(rt, msg.seq, &msg);
}

void ClusterClient::handle_redirect(Runtime& rt, const ClientRedirectMsg& msg) {
  since_progress_ = 0;
  ++redirects_;
  if (msg.hint == kNoProcess ||
      msg.hint >= static_cast<ProcessId>(config_.cluster_n)) {
    return;  // "no leader here yet" — the tick's backoff/rotation handles it
  }
  // A shard-scoped hint retargets only that group; kNoShard (an unsharded
  // replica, or a cluster-wide hint) retargets every shard.
  const bool scoped =
      msg.shard != kNoShard && msg.shard < static_cast<ShardId>(config_.shards);
  if (scoped) {
    if (shard_target_[msg.shard] == msg.hint) return;  // stale redirect
    shard_target_[msg.shard] = msg.hint;
  } else {
    bool changed = false;
    for (ProcessId& t : shard_target_) {
      if (t != msg.hint) {
        t = msg.hint;
        changed = true;
      }
    }
    if (!changed) return;  // stale redirect from the old target
  }
  // Chase the new leader immediately; per-request backoff is preserved so a
  // redirect loop between two confused replicas still decays.
  resend_all(rt);
}

void ClusterClient::handle_busy(Runtime& rt, const ClientBusyMsg& msg) {
  since_progress_ = 0;
  ++busy_;
  auto it = inflight_.find(msg.seq);
  if (it == inflight_.end()) return;
  // The leader is healthy but saturated: back off without rotating away.
  bump_backoff(rt, it->second);
}

void ClusterClient::complete(Runtime& rt, std::uint64_t seq,
                             const ClientReplyMsg* reply) {
  auto it = inflight_.find(seq);
  if (it == inflight_.end()) return;  // duplicate reply for a finished request
  InFlight f = std::move(it->second);
  inflight_.erase(it);
  pending_send_.erase(seq);
  session_.complete(seq);
  ClientCompletion done;
  done.cmd = std::move(f.cmd);
  done.invoked = f.invoked;
  done.completed = rt.now();
  done.attempts = f.attempts;
  if (reply != nullptr) {
    ++acked_;
    done.result.ok = reply->ok;
    done.result.found = reply->found;
    done.result.value = reply->value;
  } else {
    ++timed_out_;
    done.timed_out = true;
  }
  if (f.cb) f.cb(done);
  pump(rt);
}

}  // namespace lls
