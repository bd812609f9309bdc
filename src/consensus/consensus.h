// Consensus interfaces and wire-type allocation.
//
// Two implementations live in this module:
//  * LogConsensus (log_consensus.h) — the paper's communication-efficient,
//    Omega-driven, Paxos-shaped engine for a sequence of instances;
//  * RotatingConsensus (rotating_consensus.h) — the classic
//    rotating-coordinator baseline with Θ(n²) messages per round, used as
//    the comparison point in the T3/F2 benchmarks.
#pragma once

#include <optional>

#include "common/actor.h"
#include "omega/omega.h"

namespace lls {

namespace msg_type {
// LogConsensus (0x0200 block, after kConsensusBase).
inline constexpr MessageType kPrepare = 0x0201;
inline constexpr MessageType kPromise = 0x0202;
inline constexpr MessageType kAccept = 0x0203;
inline constexpr MessageType kAccepted = 0x0204;
inline constexpr MessageType kNack = 0x0205;
inline constexpr MessageType kDecide = 0x0206;
inline constexpr MessageType kDecideAck = 0x0207;
inline constexpr MessageType kForward = 0x0208;
inline constexpr MessageType kCompact = 0x0209;

// RotatingConsensus (0x0210 block).
inline constexpr MessageType kRcEstimate = 0x0211;
inline constexpr MessageType kRcProposal = 0x0212;
inline constexpr MessageType kRcAck = 0x0213;
inline constexpr MessageType kRcNack = 0x0214;
inline constexpr MessageType kRcDecide = 0x0215;
}  // namespace msg_type

/// Log position.
using Instance = std::uint64_t;

/// Paxos ballot. Ballots of process p are p, p+n, p+2n, ... so every process
/// owns an unbounded disjoint ballot set; kNoRound (-1) means "none yet".
using Round = std::int64_t;
inline constexpr Round kNoRound = -1;

/// Common surface of a multi-instance consensus engine.
class ConsensusActor : public Actor {
 public:
  /// Submits a value for eventual placement in the decided log. May be
  /// called from any process, at any time after on_start; the engine routes
  /// it to the current leader. The same value may end up decided in more
  /// than one instance across leader changes (at-least-once); deduplicate at
  /// the application layer (see rsm/).
  virtual void propose(Bytes value) = 0;

  /// The decided value of an instance, if this process has learned it.
  [[nodiscard]] virtual std::optional<Bytes> decision(Instance i) const = 0;

  /// Lowest instance this process has not yet learned a decision for.
  [[nodiscard]] virtual Instance first_unknown() const = 0;

 protected:
  /// Publishes a kDecide event on the runtime's observability bus: fired
  /// exactly once per instance on each process, in instance order, when
  /// the decision becomes known locally. Subscribers (the RSM, the
  /// experiment harness) filter on Event::process — this replaced the old
  /// single-slot set_decision_listener callback. The payload view is only
  /// valid during the publish; `b` carries the value size. `group_tag`
  /// lands in Event::mtype: 0 for a standalone engine, shard + 1 for an
  /// engine inside a sharded container, so subscribers co-located with M
  /// engines can tell the logs apart (see shard/).
  static void notify_decision(Runtime& rt, Instance i, const Bytes& value,
                              std::uint16_t group_tag = 0) {
    obs::Event e;
    e.type = obs::EventType::kDecide;
    e.t = rt.now();
    e.process = rt.id();
    e.mtype = group_tag;
    e.a = i;
    e.b = value.size();
    e.payload = value;
    rt.obs().bus().publish(e);
  }
};

}  // namespace lls
