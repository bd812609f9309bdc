// KvCore: one consensus group's replicated-KV machinery, independent of the
// leader oracle that drives it.
//
// The replica host (shard/sharded_replica.h) runs M cores behind a single
// Omega instance without instantiating M oracles. A core owns
//   * a LogConsensus engine (fed by the shared, non-owned OmegaActor),
//   * the deterministic KvStore it applies decided commands to,
//   * all client-service state for its key range: (origin, seq) dedup,
//     result caches, the admission window with BUSY backpressure, batching.
// BasicShardedReplica is one oracle + M cores; M = 1 is the unsharded
// replica.
//
// Consensus guarantees at-least-once placement of a submitted command (it
// may appear in two instances across a leader change); the core's
// (origin, seq) dedup turns that into exactly-once application, so all
// replicas' stores converge byte-for-byte.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/log_consensus.h"
#include "net/message.h"
#include "omega/omega.h"
#include "rsm/kv_store.h"

namespace lls {

struct KvReplicaConfig {
  /// When true, this replica submits at most one command at a time to the
  /// consensus log and holds the rest in a local session queue, giving
  /// FIFO per-client order. The paper's links are non-FIFO, so without
  /// this, concurrently submitted commands may be ordered arbitrarily.
  /// Applies to local submissions only; external client sessions order
  /// themselves through their own windows.
  bool fifo_client_order = false;

  /// Commands per consensus value. With > 1, bursts of submissions (local
  /// or admitted from client sessions) are packed into one log entry,
  /// amortizing the Θ(n) per-instance message cost over the batch
  /// (extension; measured by bench_a5_batching). Ignored for local
  /// submissions in FIFO session mode.
  std::size_t max_batch = 1;

  /// How long a partially filled batch may wait before being flushed.
  Duration batch_flush_delay = 5 * kMillisecond;

  /// Replicas occupy process ids [0, cluster_n); any higher id in the same
  /// runtime is a client session. 0 means "all processes are replicas" (no
  /// external clients — the pre-client-layer configuration). The protocol
  /// stack underneath (Omega, consensus) quantifies over the cluster only.
  int cluster_n = 0;

  /// Admission control: maximum client commands admitted by this replica
  /// and not yet applied. Beyond it, requests get a BUSY reply.
  std::size_t admit_high_water = 1024;

  /// Per-session cap on cached results kept for reply resends beyond the
  /// client's acked watermark (memory bound for sessions that never ack).
  std::size_t results_cap = 4096;

  /// Serve locally submitted kGet commands from local state whenever the
  /// consensus leader lease holds (zero messages, zero instances); fall
  /// back to the ordered path otherwise. Requires the consensus config's
  /// lease to be enabled to ever fire. Client-protocol reads are governed
  /// by the Command::read_only flag the client sets, not by this knob.
  /// Composes with fifo_client_order: the fast path never overtakes queued
  /// same-session commands — while any are outstanding the read falls back
  /// to the ordered path, preserving per-client program order.
  bool lease_reads = false;
};

/// Everything a KvCore needs, in one named place (replaces the positional
/// (omega, consensus config, replica config) constructor sprawl). The
/// consensus config's `shard` field doubles as the core's shard identity.
struct KvCoreOptions {
  /// Leader oracle; not owned, must outlive the core.
  const OmegaActor* omega = nullptr;
  LogConsensusConfig consensus;
  KvReplicaConfig replica;
};

class KvCore final : public Actor {
 public:
  using Callback = std::function<void(const KvResult&)>;

  /// The options' omega supplies the leader oracle; not owned, must outlive
  /// this core (the owning replica holds both). The consensus config's
  /// `shard` field doubles as this core's shard identity: redirects carry it
  /// as the routing hint scope, and the core only consumes kDecide events
  /// tagged with the matching group (shard < 0 = unsharded, tag 0).
  explicit KvCore(const KvCoreOptions& options);

  /// Overrides the first local submit() sequence number, evaluated lazily on
  /// the first submission (after the oracle has started). Crash-recovery
  /// replicas namespace sequences by the omega incarnation; unset = start
  /// at 1.
  void set_initial_seq(std::function<std::uint64_t()> fn) {
    initial_seq_ = std::move(fn);
  }

  // Actor ------------------------------------------------------------------
  // The runtime handed in must present the *cluster* view (n() = replica
  // count): the owning replica wraps the fabric runtime accordingly. The
  // core handles the consensus block (0x02xx) and the client protocol
  // (0x031x); Omega traffic stays with the owner.
  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

  // Client surface ----------------------------------------------------------
  /// Submits a command from this replica; `cb` (optional) fires when the
  /// command is applied locally. Returns the command's sequence number.
  std::uint64_t submit(KvOp op, std::string key, std::string value = "",
                       std::string expected = "", Callback cb = nullptr);

  [[nodiscard]] const KvReplicaConfig& config() const { return config_; }
  [[nodiscard]] const KvStore& store() const { return store_; }
  [[nodiscard]] std::uint64_t applied_count() const { return store_.applied(); }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_;
  }
  /// Local submissions whose callbacks have not fired yet.
  [[nodiscard]] std::size_t callbacks_outstanding() const {
    return callbacks_.size();
  }
  /// Commands batched locally but not yet handed to consensus.
  [[nodiscard]] std::size_t batch_buffered() const { return batch_.size(); }
  LogConsensus& consensus() { return consensus_; }
  [[nodiscard]] const LogConsensus& consensus() const { return consensus_; }

  // Compaction ---------------------------------------------------------------
  /// Compacts the consensus log below everything this core has applied,
  /// snapshotting the KV state to stable storage first when the group is
  /// durable. Without the snapshot, a durable replica recovering after
  /// compaction would rebuild its store only from the surviving log suffix
  /// and silently lose the compacted prefix (the PR 9 audit bug).
  Instance compact_applied();
  /// Like compact_applied, but bounded by an externally coordinated
  /// watermark (typically min(applied_upto) across the cluster). Compacting
  /// past the slowest live replica's applied prefix destroys the only copies
  /// of decisions that replica still needs — it could then never catch up,
  /// and LogConsensus's prepare-side compaction guard would refuse it
  /// leadership forever. Drivers that compact concurrently with churn or
  /// crash-recovery must use this coordinated form.
  Instance compact_to(Instance upto);
  /// Instances this core has fully applied (1 + the highest decided
  /// instance seen; instance numbering is dense below it).
  [[nodiscard]] Instance applied_upto() const { return applied_upto_; }

  // Client-service introspection --------------------------------------------
  /// True when (origin, seq) has been applied to this core's store.
  [[nodiscard]] bool has_applied(ProcessId origin, std::uint64_t seq) const {
    auto it = applied_.find(origin);
    return it != applied_.end() && it->second.count(seq) != 0;
  }
  /// Client commands admitted here and not yet applied (the BUSY meter).
  [[nodiscard]] std::size_t admitted_inflight() const {
    return admitted_inflight_;
  }
  [[nodiscard]] std::uint64_t busy_sent() const { return busy_sent_; }
  [[nodiscard]] std::uint64_t redirects_sent() const {
    return redirects_sent_;
  }
  [[nodiscard]] std::uint64_t client_replies_sent() const {
    return client_replies_sent_;
  }
  /// Retried requests answered from the result cache (no re-execution).
  [[nodiscard]] std::uint64_t cached_replies_sent() const {
    return cached_replies_sent_;
  }
  /// Read-only commands served from local state under a valid leader lease
  /// (zero consensus instances, zero inter-replica messages each).
  [[nodiscard]] std::uint64_t reads_local() const { return reads_local_; }
  /// Read-only commands that fell back to the ordered (consensus) path
  /// because the lease did not hold at service time.
  [[nodiscard]] std::uint64_t reads_ordered() const { return reads_ordered_; }

 private:
  /// Per-session server-side state. `results` answers retries of applied
  /// commands; `admitted` marks commands this core queued for consensus
  /// (it replies when they apply — other replicas apply silently).
  struct ClientSessionSrv {
    std::uint64_t ack_upto = 0;
    std::map<std::uint64_t, KvResult> results;
    std::set<std::uint64_t> admitted;
  };

  void on_decided(Instance i, BytesView value);
  void apply_command(const Command& cmd);
  void persist_snapshot(Runtime& rt) const;
  void restore_snapshot(Runtime& rt);
  [[nodiscard]] std::string snapshot_key() const;
  void pump_session_queue();
  void flush_batch();
  void enqueue_for_consensus(Command cmd);
  /// Hands a burst of admitted commands to consensus together: one proposal
  /// when batching is off (the client-coalescing win), the usual batch
  /// buffer otherwise.
  void enqueue_commands(std::vector<Command> cmds);
  void handle_client_request(Runtime& rt, ProcessId src, BytesView payload);
  void handle_client_batch(Runtime& rt, ProcessId src, BytesView payload);
  /// Shared admission path for single and batched requests: answers cache
  /// hits / redirects / BUSY directly; returns the command only when it was
  /// newly admitted and is owed a consensus placement.
  std::optional<Command> admit_one(Runtime& rt, ProcessId src,
                                   std::uint64_t seq, std::uint64_t ack_upto,
                                   BytesView command_blob);
  void send_reply(ProcessId client, std::uint64_t seq, const KvResult& result);
  /// Executes kGet semantics against the local store without touching any
  /// replication state — the lease fast path's read.
  [[nodiscard]] KvResult local_read(const std::string& key) const;

  [[nodiscard]] bool is_client(ProcessId p) const {
    return p != kNoProcess && p >= static_cast<ProcessId>(cluster_n_) &&
           cluster_n_ > 0;
  }

  KvReplicaConfig config_;
  Runtime* rt_ = nullptr;
  const OmegaActor* omega_;
  LogConsensus consensus_;
  /// kDecide events from co-located engines are told apart by this tag
  /// (shard + 1, or 0 for an unsharded core) — see ConsensusActor.
  std::uint16_t group_tag_ = 0;
  /// Shard identity carried in redirects (kNoShard when unsharded).
  ShardId shard_ = kNoShard;
  std::function<std::uint64_t()> initial_seq_;

  ProcessId self_ = kNoProcess;
  int cluster_n_ = 0;
  bool durable_ = false;  ///< mirror of the consensus config's durable flag
  KvStore store_;
  /// 1 + highest decided instance applied (or skipped-as-snapshotted).
  Instance applied_upto_ = 0;
  /// Decisions below this are covered by the restored snapshot: their
  /// replays on recovery must not re-apply (the dedup sets that would have
  /// suppressed them were folded into the snapshot).
  Instance snapshot_skip_ = 0;
  std::uint64_t next_seq_ = 0;
  bool seq_initialized_ = false;
  std::uint64_t duplicates_ = 0;
  /// Applied sequences per origin. A plain set rather than a watermark:
  /// commands of one origin may be decided out of sequence order across
  /// leader changes (an old leader's stranded proposal can resurface late).
  std::unordered_map<ProcessId, std::unordered_set<std::uint64_t>> applied_;
  std::map<std::uint64_t, Callback> callbacks_;  // by local seq

  // Client service.
  std::unordered_map<ProcessId, ClientSessionSrv> clients_;
  std::size_t admitted_inflight_ = 0;
  std::uint64_t busy_sent_ = 0;
  std::uint64_t redirects_sent_ = 0;
  std::uint64_t client_replies_sent_ = 0;
  std::uint64_t cached_replies_sent_ = 0;

  // Lease read path.
  std::uint64_t reads_local_ = 0;
  std::uint64_t reads_ordered_ = 0;
  obs::Counter* reads_local_ctr_ = nullptr;
  obs::Counter* reads_ordered_ctr_ = nullptr;

  // FIFO session mode.
  std::deque<Command> session_queue_;
  bool outstanding_ = false;

  // Batching mode.
  std::vector<Command> batch_;
  TimerId flush_timer_ = kInvalidTimer;

  obs::Subscription decide_sub_;
};

}  // namespace lls
