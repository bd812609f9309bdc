// LogConsensus: communication-efficient, Omega-driven consensus on a log.
//
// Reconstruction of the consensus side of Aguilera et al. (PODC 2004): with
// a majority of correct processes and the CE-Omega leader oracle, consensus
// is solvable in system S, and communication-efficiently — after
// stabilization every instance is driven entirely by the one elected leader
// (Θ(n) messages, two message delays with pipelining), and followers send
// only direct replies to it. See DESIGN.md §4.
//
// Shape: multi-Paxos hardened for fair-lossy links.
//  * Only the process currently trusted by Omega acts as proposer; it runs
//    Phase 1 (PREPARE/PROMISE) once per leadership epoch and then drives
//    every instance with Phase 2 only.
//  * Commit is by watermark, not per-instance acks: every ACCEPT carries
//    the leader's decided prefix (commit_upto) and every ACCEPTED reports
//    the follower's own (decided_upto). The leader sends explicit DECIDEs
//    only to close an idle tail and, with capped exponential backoff, to
//    catch up a follower whose watermark has stalled. Symmetrically, a
//    follower pushes the leader a decision the leader is not known to
//    have (a stale leader that missed a rival's epoch).
//  * A PREPARE or ACCEPT is re-sent to the processes that have not
//    answered it once it is a full retry period old, until the required
//    acks arrive — over fair-lossy links, retried messages eventually get
//    through, and a younger one may still be answered, so re-sending it
//    early buys nothing. Followers never retransmit spontaneously;
//    they only answer the leader (preserving the communication-efficiency
//    discipline) and re-forward their own pending proposals to the current
//    leader.
//  * Compaction is leader-driven: the ready leader hints the followers the
//    lowest decided prefix it knows of in the group (its safe point), and
//    the application compacts below it (KvCore::compact_to), so no live
//    process ever needs a discarded decision.
//  * Liveness needs Omega stabilization plus a correct majority; safety
//    (agreement, validity, integrity) holds unconditionally and is enforced
//    by the Acceptor rules, including before GST and with no ♦-source.
//
// Duplicates: a value may be decided in more than one instance across leader
// changes (at-least-once submission); the RSM layer deduplicates by command
// id. An empty value is a no-op used to fill gaps discovered in Phase 1.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "consensus/paxos.h"

namespace lls {

struct LogConsensusConfig {
  /// Leadership-poll period, and the age at which an unanswered PREPARE or
  /// ACCEPT is re-sent to the processes that have not answered it.
  Duration retry_period = 20 * kMillisecond;

  /// Crash-recovery extension: persist the acceptor state and the decided
  /// log to Runtime::storage() on every mutation, and restore them on
  /// (re)start. With this on, Paxos safety survives crash/recovery cycles
  /// (the classical durable-acceptor discipline); requires a runtime that
  /// provides storage (the simulator's crash-recovery mode). The decision
  /// listener re-fires for the restored prefix on recovery, letting the
  /// application rebuild its state machine.
  bool durable = false;

  /// Shard index when this engine is one of M groups inside a sharded
  /// container (see shard/): tags kDecide and consensus-span events with
  /// shard + 1 in Event::mtype and suffixes the decide-latency histogram
  /// name with "_shard<g>", so co-located logs stay distinguishable.
  /// -1 (default) = standalone engine; events carry tag 0 and the histogram
  /// keeps its unsuffixed name — exactly the pre-sharding behavior.
  int shard = -1;

  /// Proposer pipelining window: maximum undecided instances this leader
  /// keeps in flight at once. Fresh pending values beyond the window wait
  /// in the queue until a decision frees a slot (Phase-1 merge re-proposals
  /// are exempt — they are owed immediately for safety). 0 = unbounded,
  /// the original eager behavior.
  std::size_t max_inflight = 0;

  /// Leader lease: a quorum-anchored window during which lease_valid() may
  /// return true at the leader, certifying that no other proposer can have
  /// assembled a majority — so a local read is linearizable with zero
  /// messages. Mechanism (DESIGN.md §14): every supporting PROMISE/ACCEPTED
  /// a follower grants also fences that follower to the grantee for
  /// `duration` (it silently drops PREPARE/ACCEPT from anyone else while
  /// fenced), and echoes back the proposer's own send timestamp; the
  /// proposer counts a support as live until echo_ts + duration. Because
  /// echo_ts predates the follower's fence anchor in real time, the
  /// proposer's view is conservative; only relative clock *rates* matter,
  /// absorbed by `clock_margin`.
  struct LeaseConfig {
    /// Master switch. Off (default) = wire-compatible no-op: timestamps are
    /// stamped/echoed but fences are never honored and lease_valid() is
    /// always false.
    bool enabled = false;

    /// The lease window W: follower fence lifetime and support lifetime.
    /// Must comfortably exceed the retry period (supports renew via the
    /// ordinary ACCEPT/ACCEPTED traffic; a window shorter than one
    /// round-trip can never stay valid).
    Duration duration = 200 * kMillisecond;

    /// Safety margin subtracted from every support expiry before trusting
    /// it, covering relative clock drift over one window (>= 2 * drift_rate
    /// * duration). 0 is correct in the simulator (one global clock); the
    /// UDP runtime should set a few milliseconds.
    Duration clock_margin = 0;

    /// SABOTAGE SELF-TEST ONLY: skip the fence/quorum machinery and treat
    /// bare Omega self-belief as a lease. Deliberately unsound — exists so
    /// the linearizability checker can demonstrate it catches the stale
    /// read a broken lease serves. Never enable outside the sabotage
    /// campaign.
    bool unsafe_skip_fence = false;
  };
  LeaseConfig lease;
};

class LogConsensus final : public ConsensusActor {
 public:
  /// `omega` supplies the leader oracle; not owned, must outlive this actor
  /// (typically both live under one MuxActor on the same process).
  LogConsensus(LogConsensusConfig config, const OmegaActor* omega)
      : config_(config), omega_(omega) {}

  /// Watermark catch-up (DESIGN.md §4): most DECIDEs one tail flush or
  /// catch-up attempt sends to one follower.
  static constexpr std::size_t kCatchupBatch = 64;
  /// Ceiling of the per-follower catch-up backoff, in retry periods. The
  /// backoff doubles while the follower's watermark does not move, so a
  /// dead follower costs about one message per ceiling period.
  static constexpr int kCatchupBackoffCap = 64;
  /// Leader-driven compaction (DESIGN.md §4): the ready leader hints its
  /// safe point to the followers each time it has advanced by at least
  /// this many instances, and a replica compacts at most once per chunk.
  static constexpr Instance kCompactChunk = 128;
  /// Decisions a replica keeps below the safe point when it compacts, so a
  /// late forward of a value just decided still matches the log.
  static constexpr Instance kCompactTail = 64;

  // Actor ------------------------------------------------------------------
  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

  // ConsensusActor ---------------------------------------------------------
  void propose(Bytes value) override;
  [[nodiscard]] std::optional<Bytes> decision(Instance i) const override;
  [[nodiscard]] Instance first_unknown() const override { return next_notify_; }

  // Log compaction -----------------------------------------------------------
  /// Discards decided entries below `upto` (and the matching acceptor
  /// state), bounding memory. Contract: every process must already have
  /// learned the prefix — compacted values can no longer be served to
  /// laggards, and a candidate whose log frontier is below `upto` is
  /// refused promises. safe_point() is such a bound; KvCore::compact_to,
  /// its one production caller, stays below it. Requests are clamped to
  /// first_unknown(); returns the watermark actually applied.
  Instance compact(Instance upto);

  [[nodiscard]] Instance compacted_upto() const { return log_base_; }

  /// A lower bound on the decided prefix of every process in the group:
  /// the ready leader's minimum over its own prefix and its watermark of
  /// each peer (a silent peer pins it), adopted in steps of kCompactChunk,
  /// or the largest point a leader has hinted here. Prefixes never shrink,
  /// so a stale or deposed leader's hint stays a valid bound.
  [[nodiscard]] Instance safe_point() const { return safe_point_; }

  // Leader lease ------------------------------------------------------------
  /// True iff this process may serve a linearizable read from local state
  /// right now, with zero messages: it is the ready leader, a majority of
  /// fence promises (its own included) is provably unexpired after the
  /// clock margin, no higher round has been observed, and the decided
  /// prefix as of this epoch's start has been fully delivered. Re-check
  /// before *every* read — validity is a property of an instant.
  [[nodiscard]] bool lease_valid() const;

  /// Supports counted live by lease_valid()'s quorum rule at this instant
  /// (including self when ready). For tests and gauges.
  [[nodiscard]] int lease_supporters() const;

  // Introspection ----------------------------------------------------------
  [[nodiscard]] bool is_leader_ready() const { return leader_ready_; }
  [[nodiscard]] Round current_round() const { return my_round_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] Instance log_size() const { return log_base_ + log_.size(); }
  [[nodiscard]] std::size_t log_entries_held() const { return log_.size(); }
  /// Accepted pairs the acceptor still holds: undecided instances only,
  /// since learn() drops the pair of every instance it decides.
  [[nodiscard]] std::size_t accepted_pairs_held() const {
    return acceptor_.all_accepted().size();
  }
  [[nodiscard]] const Acceptor& acceptor() const { return acceptor_; }
  [[nodiscard]] ProcessId fence_holder() const { return fence_holder_; }
  [[nodiscard]] TimePoint fence_until() const { return fence_until_; }
  [[nodiscard]] std::uint64_t proposals() const { return proposals_; }
  /// propose() calls dropped as byte-identical to a queued/in-flight value.
  [[nodiscard]] std::uint64_t dup_proposals_suppressed() const {
    return dup_proposals_suppressed_;
  }

 private:
  // Leader-side driving, called on every tick and relevant state change.
  void drive(Runtime& rt);
  void start_prepare(Runtime& rt);
  void become_ready(Runtime& rt);
  void assign_pending(Runtime& rt);
  void send_accept(Runtime& rt, ProcessId dst, Instance i);
  /// Re-sends every PREPARE/ACCEPT that is at least one retry period old
  /// to the processes that have not answered it.
  void retransmit(Runtime& rt);
  /// Per-tick watermark catch-up: a ready leader catches up its stalled
  /// followers, anyone else the leader it trusts.
  void catch_up(Runtime& rt);
  /// Idle-tail flush: with nothing in flight or queued, no ACCEPT will
  /// carry commit_upto further, so every responding follower is sent the
  /// decisions it has not been sent yet.
  void flush_tail(Runtime& rt);
  /// Sends `q` up to `limit` DECIDEs from instance `from` upward.
  void send_decides(Runtime& rt, ProcessId q, Instance from,
                    std::size_t limit);
  /// Records that `q` has decided everything below `decided_upto`;
  /// progress resets its catch-up backoff.
  void note_watermark(ProcessId q, Instance decided_upto);
  /// Ready leader: recomputes the safe point and, once it has advanced by
  /// kCompactChunk, adopts it and hints it to every follower.
  void advance_safe_point(Runtime& rt);
  void abdicate();

  // Durability (crash-recovery extension).
  void persist(Runtime& rt) const;
  void restore(Runtime& rt);

  // Learner-side. The decided log is stored with a compaction offset:
  // absolute instance i lives at log_[i - log_base_]; everything below
  // log_base_ is decided-and-discarded.
  /// `value` may borrow a receive buffer; learn copies exactly once, at
  /// the point the decided log retains it.
  void learn(Runtime& rt, Instance i, BytesView value);
  /// Drops instance `i`, now decided with `value`, from the in-flight set;
  /// a different value there means this leader lost the slot.
  void retire_inflight(Instance i, BytesView value);
  [[nodiscard]] bool is_decided(Instance i) const {
    if (i < log_base_) return true;
    Instance rel = i - log_base_;
    return rel < log_.size() && log_[rel].has_value();
  }
  [[nodiscard]] const Bytes* decided_value(Instance i) const {
    if (i < log_base_) return nullptr;  // compacted away
    Instance rel = i - log_base_;
    if (rel < log_.size() && log_[rel].has_value()) return &*log_[rel];
    return nullptr;
  }
  [[nodiscard]] Instance first_undecided() const;
  [[nodiscard]] Instance commit_upto() const;

  void handle_prepare(Runtime& rt, ProcessId src, const PrepareMsg& msg);
  void handle_promise(Runtime& rt, ProcessId src, const PromiseMsg& msg);
  void handle_accept(Runtime& rt, ProcessId src, const AcceptMsg& msg);
  void handle_accepted(Runtime& rt, ProcessId src, const AcceptedMsg& msg);
  void handle_nack(const NackMsg& msg);
  void handle_decide(Runtime& rt, ProcessId src, const DecideMsg& msg);
  void handle_decide_ack(Runtime& rt, ProcessId src, const DecideAckMsg& msg);
  void handle_forward(ProcessId src, const ForwardMsg& msg);
  void handle_compact(const CompactMsg& msg);

  [[nodiscard]] int majority() const { return n_ / 2 + 1; }
  [[nodiscard]] bool i_am_omega_leader() const {
    return omega_->leader() == self_;
  }

  // Lease internals ---------------------------------------------------------
  /// Fences are only honored when leases are on and not sabotaged.
  [[nodiscard]] bool fence_enforced() const {
    return config_.lease.enabled && !config_.lease.unsafe_skip_fence;
  }
  /// True when an unexpired fence blocks proposer traffic from `src`.
  /// fence_holder_ == kNoProcess with an unexpired window means fence-all
  /// (post-recovery conservatism: the promises we forgot could belong to
  /// anyone).
  [[nodiscard]] bool fenced_against(ProcessId src, TimePoint now) const {
    if (!fence_enforced() || now >= fence_until_) return false;
    return fence_holder_ == kNoProcess || src != fence_holder_;
  }
  /// Grants/renews the fence to `src` after a supporting reply.
  void grant_fence(ProcessId src, Round round, TimePoint now);
  /// Records a support echo from `q` (PROMISE or ACCEPTED for my round).
  void record_support(ProcessId q, TimePoint echo_ts);
  /// Publishes lease-held spans on validity transitions (called per tick).
  void sample_lease_span(Runtime& rt);
  /// Event tag for this engine's kDecide / span events (0 = unsharded).
  [[nodiscard]] std::uint16_t group_tag() const {
    return config_.shard < 0 ? 0
                             : static_cast<std::uint16_t>(config_.shard + 1);
  }
  /// True when the pipelining window has room for a fresh assignment.
  [[nodiscard]] bool window_open() const {
    return config_.max_inflight == 0 ||
           inflight_.size() < config_.max_inflight;
  }

  LogConsensusConfig config_;
  const OmegaActor* omega_;

  ProcessId self_ = kNoProcess;
  int n_ = 0;
  TimerId tick_timer_ = kInvalidTimer;
  /// One-shot wake at fence_until_ for a candidate its own fence refused.
  TimerId fence_wake_timer_ = kInvalidTimer;
  /// Captured at on_start so externally-invoked propose() can drive the
  /// protocol eagerly instead of waiting for the next tick.
  Runtime* rt_ = nullptr;

  // Acceptor / learner state.
  Acceptor acceptor_;
  Instance log_base_ = 0;                  // compaction watermark
  std::vector<std::optional<Bytes>> log_;  // decided values, offset by base
  Instance next_notify_ = 0;

  // Proposer state (meaningful only while Omega trusts this process).
  Round my_round_ = kNoRound;
  Round highest_seen_round_ = kNoRound;
  bool preparing_ = false;
  bool leader_ready_ = false;
  std::set<ProcessId> promises_;
  std::map<Instance, Acceptor::AcceptedPair> promise_merge_;
  Instance prepare_from_ = 0;
  /// When this epoch's PREPAREs were last sent.
  TimePoint prepare_sent_at_ = 0;

  struct InFlight {
    Bytes value;
    std::set<ProcessId> acks;
    /// When its ACCEPTs were last sent.
    TimePoint sent_at = 0;
    /// Re-proposed from a Phase-1 merge, not submitted to this leader.
    bool recovered = false;
  };
  /// Whether this leader must re-queue the value if it loses its slot: a
  /// real value submitted to it. A recovered value stays with its
  /// submitter, which keeps forwarding it until decided; re-queueing it
  /// would make every abdication re-submit earlier epochs' values, and
  /// dueling leaders that have not learned each other's decisions would
  /// grow the log exponentially.
  [[nodiscard]] static bool owed_placement(const InFlight& inf) {
    return !inf.value.empty() && !inf.recovered;
  }
  std::map<Instance, InFlight> inflight_;
  Instance next_free_ = 0;

  /// What one peer is known to have decided, for catch-up.
  struct PeerProgress {
    /// A lower bound on the peer's decided prefix, from what it sent:
    /// ACCEPT.commit_upto, ACCEPTED.decided_upto, DECIDE (instance + 1)
    /// and DECIDE_ACK.
    Instance decided_upto = 0;
    /// Every decision below this has been sent to the peer at least once;
    /// the tail flush never sends one twice.
    Instance sent_upto = 0;
    /// Earliest time of the next catch-up attempt.
    TimePoint retry_at = 0;
    /// Current backoff in retry periods. 1 = responding: the peer made
    /// progress since the last attempt (it gets tail flushes and full
    /// batches). More = it did not (no tail flush, one probe per attempt).
    int backoff = 1;
  };
  /// Indexed by process id.
  std::vector<PeerProgress> peers_;
  /// commit_upto() as of the previous tick: a peer below it had at least
  /// one full retry period to learn it, so it is stalled.
  Instance commit_at_last_tick_ = 0;
  /// See safe_point().
  Instance safe_point_ = 0;

  /// Values submitted here (locally or forwarded) and not yet observed in
  /// the decided log. Re-forwarded to the current leader on every tick.
  std::deque<Bytes> pending_;

  std::uint64_t proposals_ = 0;
  std::uint64_t dup_proposals_suppressed_ = 0;

  // Lease state -------------------------------------------------------------
  // Acceptor side: who this process last granted a supporting reply to, at
  // which round, and until when that grant fences out other proposers.
  ProcessId fence_holder_ = kNoProcess;
  Round fence_round_ = kNoRound;
  TimePoint fence_until_ = 0;
  // Proposer side: per-process conservative support expiry (own send clock
  // echoed back + window), and the epoch-start frontier that must be fully
  // learned before local reads are fresh.
  std::vector<TimePoint> support_until_;
  Instance ready_watermark_ = 0;
  // Span bookkeeping for the lease-held observability spans.
  bool lease_was_valid_ = false;
  TimePoint lease_span_start_ = 0;

  // Observability (per-instance consensus spans). The histogram handle is
  // resolved once at on_start; accept_started_ remembers when this process,
  // as proposer, first put an instance in flight so learn() can record the
  // propose→decide latency and close the span.
  obs::Histogram* decide_latency_ = nullptr;
  std::map<Instance, TimePoint> accept_started_;
};

}  // namespace lls
