// CE-Omega: the paper's communication-efficient Omega algorithm.
//
// Reconstruction of the leader-election algorithm of Aguilera,
// Delporte-Gallet, Fauconnier and Toueg, "Communication-efficient leader
// election and consensus with limited link synchrony" (PODC 2004); see
// DESIGN.md §3 for the reconstruction notes and convergence argument.
//
// System assumptions (system S): crash-stop processes; all links may be
// fair lossy; at least one correct process is a ♦-source (its outgoing links
// are eventually timely).
//
// Mechanism:
//  * Election key: each process q carries an accusation counter; the leader
//    is the process minimizing (counter, id) lexicographically.
//  * Only a process that believes itself leader sends heartbeats (ALIVE),
//    every eta, to all — this is the communication-efficiency discipline:
//    after stabilization exactly one process sends, on exactly n-1 links.
//  * A follower that times out on its leader sends an accusation (ACCUSE)
//    *to the accused only* and provisionally demotes it locally; the accused
//    increments its own (authoritative) counter when the accusation matches
//    its current phase number, then bumps the phase — so a volley of
//    accusations triggered by one silent period is counted once.
//  * Timeouts adapt on every expiry, so a ♦-source is accused only finitely
//    often and its counter stabilizes, while any process that keeps claiming
//    leadership over a non-timely link is accused unboundedly. The
//    lexicographically-minimal stable (counter, id) pair wins everywhere.
#pragma once

#include <cstdint>
#include <vector>

#include "net/wire.h"
#include "omega/omega.h"

namespace lls {

struct CeOmegaConfig {
  /// Heartbeat period (the paper's eta).
  Duration eta = 10 * kMillisecond;

  /// Initial leader timeout; must exceed eta or everything is accused
  /// immediately (the algorithm still converges, just noisily).
  Duration initial_timeout = 30 * kMillisecond;

  /// Timeout adaptation on expiry (ablation A2).
  enum class TimeoutPolicy { kNone, kAdditive, kMultiplicative };
  TimeoutPolicy timeout_policy = TimeoutPolicy::kAdditive;
  Duration additive_step = 10 * kMillisecond;
  double multiplicative_factor = 1.5;

  /// Phase-number de-duplication of accusations (ablation A1). With this
  /// off, every received accusation increments the counter, so counters of
  /// perfectly fine leaders inflate under message reordering/duplication of
  /// accusation volleys.
  bool phase_dedup = true;

  /// Send accusations to everyone instead of only the accused (ablation
  /// A3). Correct but destroys communication efficiency during instability.
  bool broadcast_accusations = false;

  /// Leader-lease hint window: while this process believes itself leader,
  /// every ALIVE it emits renews lease_until() to now + lease_duration; an
  /// accepted accusation (own counter bump) or loss of self-leadership
  /// zeroes it immediately. 0 (default) = no hint (lease_until() returns
  /// nullopt). Pick >= the consensus-layer lease window so the hint expires
  /// no earlier than the quorum lease it is meant to pre-empt.
  Duration lease_duration = 0;
};

class CeOmega final : public OmegaActor {
 public:
  // Wire messages ---------------------------------------------------------
  struct AliveMsg {
    std::uint64_t counter = 0;
    std::uint64_t phase = 0;

    LLS_WIRE_FIELDS(AliveMsg, counter, phase)
  };

  struct AccuseMsg {
    ProcessId accused = kNoProcess;
    std::uint64_t phase = 0;

    LLS_WIRE_FIELDS(AccuseMsg, accused, phase)
  };

  explicit CeOmega(CeOmegaConfig config) : config_(config) {}

  // Actor interface -------------------------------------------------------
  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

  // OmegaActor ------------------------------------------------------------
  [[nodiscard]] ProcessId leader() const override { return leader_; }
  [[nodiscard]] std::optional<TimePoint> lease_until() const override {
    if (config_.lease_duration <= 0) return std::nullopt;
    return lease_until_;
  }

  // Introspection for tests and ablation benches --------------------------
  [[nodiscard]] std::uint64_t accusations(ProcessId q) const {
    return acc_[q];
  }
  [[nodiscard]] std::uint64_t provisional(ProcessId q) const {
    return prov_[q];
  }
  [[nodiscard]] std::uint64_t my_phase() const { return my_phase_; }
  [[nodiscard]] Duration timeout_of(ProcessId q) const { return timeout_[q]; }

 private:
  /// Effective election key of q as seen locally.
  [[nodiscard]] std::uint64_t key_counter(ProcessId q) const {
    return acc_[q] + prov_[q];
  }

  /// argmin over (key_counter, id).
  [[nodiscard]] ProcessId compute_leader() const;

  /// Applies a possible leadership change; (re)arms the monitor timer.
  /// `heard_from_leader` forces a timer restart when the current leader just
  /// proved liveness.
  void update_leadership(Runtime& rt, bool force_restart_timer);

  void arm_leader_timer(Runtime& rt);
  void disarm_leader_timer(Runtime& rt);
  void bump_timeout(ProcessId q);
  void send_alive(Runtime& rt);

  void handle_alive(Runtime& rt, ProcessId src, const AliveMsg& msg);
  void handle_accuse(Runtime& rt, ProcessId src, const AccuseMsg& msg);

  CeOmegaConfig config_;
  ProcessId self_ = kNoProcess;
  int n_ = 0;

  std::vector<std::uint64_t> acc_;         // authoritative counters
  std::vector<std::uint64_t> prov_;        // local provisional accusations
  std::vector<std::uint64_t> last_phase_;  // last phase heard per process
  std::vector<Duration> timeout_;
  std::uint64_t my_phase_ = 0;

  ProcessId leader_ = kNoProcess;
  TimerId alive_timer_ = kInvalidTimer;
  TimerId leader_timer_ = kInvalidTimer;

  /// Self-lease hint (see CeOmegaConfig::lease_duration); renewed by
  /// send_alive, zeroed on own-counter bumps and on demotion.
  TimePoint lease_until_ = 0;
};

}  // namespace lls
