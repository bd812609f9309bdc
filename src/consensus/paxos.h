// Paxos wire messages and acceptor-side state for the multi-instance log
// engine (log_consensus.h). Kept separate so the codecs and invariants are
// unit-testable without the full actor.
//
// Ballot (round) discipline: process p uses ballots p, p+n, p+2n, …, so
// ballot sets are disjoint across processes and totally ordered. An acceptor
// maintains one global promise and per-instance accepted (round, value)
// pairs, as in classic multi-Paxos.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/blob.h"
#include "common/serialization.h"
#include "consensus/consensus.h"
#include "net/wire.h"

namespace lls {

/// Smallest ballot owned by `owner` that is strictly greater than `bound`.
[[nodiscard]] constexpr Round next_ballot(ProcessId owner, int n, Round bound) {
  Round r = static_cast<Round>(owner);
  while (r <= bound) r += n;
  return r;
}

// ---------------------------------------------------------------------------
// Wire messages (layouts declared once via LLS_WIRE_FIELDS; see net/wire.h).
//
// Leader leases ride the existing Phase-1/Phase-2 exchange instead of a new
// message class: the proposer stamps PREPARE/ACCEPT with `ts` (its own clock
// at send time) and a supporting reply echoes it back verbatim as `echo_ts`.
// Because the echo is the *proposer's* clock at the original send — which is
// strictly earlier in real time than the follower's fence anchor (set at
// receive) — the proposer's lease window [echo_ts, echo_ts + W) is a
// conservative subset of the follower's fence window, with no cross-clock
// comparison anywhere. See DESIGN.md §14.
// ---------------------------------------------------------------------------

struct PrepareMsg {
  Round round = kNoRound;
  /// The new leader asks for acceptor state from this instance upward.
  Instance from = 0;
  /// Proposer clock at send; echoed by PromiseMsg for lease accounting.
  TimePoint ts = 0;

  LLS_WIRE_FIELDS(PrepareMsg, round, from, ts)
};

// Value-carrying fields are WireBlob: encoding borrows the sender's buffer
// (no copy into the message struct), and decoding borrows the receive
// buffer (no copy out). Handlers that retain a decoded value past the
// delivery callback must call .to_owned(); see common/blob.h.

struct PromiseEntry {
  Instance instance = 0;
  Round accepted_round = kNoRound;
  bool decided = false;
  WireBlob value;

  LLS_WIRE_FIELDS(PromiseEntry, instance, accepted_round, decided, value)
};

struct PromiseMsg {
  Round round = kNoRound;
  std::vector<PromiseEntry> entries;
  /// PrepareMsg::ts echoed back (support anchor for the proposer's lease).
  TimePoint echo_ts = 0;

  LLS_WIRE_FIELDS(PromiseMsg, round, entries, echo_ts)
};

struct AcceptMsg {
  Round round = kNoRound;
  Instance instance = 0;
  /// Everything below this instance is decided at the leader — the commit
  /// path: followers learn each instance they accepted at this round.
  Instance commit_upto = 0;
  WireBlob value;
  /// Proposer clock at send; echoed by AcceptedMsg for lease accounting.
  TimePoint ts = 0;

  LLS_WIRE_FIELDS(AcceptMsg, round, instance, commit_upto, value, ts)
};

struct AcceptedMsg {
  Round round = kNoRound;
  Instance instance = 0;
  /// AcceptMsg::ts echoed back (support anchor for the proposer's lease).
  TimePoint echo_ts = 0;
  /// The follower's decided prefix (first instance it has not learned),
  /// taken after learning from the ACCEPT's commit_upto.
  Instance decided_upto = 0;

  LLS_WIRE_FIELDS(AcceptedMsg, round, instance, echo_ts, decided_upto)
};

struct NackMsg {
  Round rejected_round = kNoRound;
  Round promised_round = kNoRound;

  LLS_WIRE_FIELDS(NackMsg, rejected_round, promised_round)
};

struct DecideMsg {
  Instance instance = 0;
  WireBlob value;

  LLS_WIRE_FIELDS(DecideMsg, instance, value)
};

/// Reply to a DECIDE. `instance` is the replier's decided prefix after
/// learning it (its watermark), not the instance the DECIDE carried.
struct DecideAckMsg {
  Instance instance = 0;

  LLS_WIRE_FIELDS(DecideAckMsg, instance)
};

struct ForwardMsg {
  WireBlob value;

  LLS_WIRE_FIELDS(ForwardMsg, value)
};

/// Leader -> followers: every process in the group has decided everything
/// below `upto` (the leader's safe point: its own decided prefix and its
/// lower bound on each peer's). A receiver may compact its log up to the
/// smaller of `upto` and its own applied prefix, minus a tail.
struct CompactMsg {
  Instance upto = 0;

  LLS_WIRE_FIELDS(CompactMsg, upto)
};

// ---------------------------------------------------------------------------
// Acceptor state.
// ---------------------------------------------------------------------------

/// The acceptor half of multi-Paxos: one global promise, per-instance
/// accepted pairs. Pure state machine — no I/O — so its safety rules are
/// directly unit-testable.
class Acceptor {
 public:
  struct AcceptedPair {
    Round round = kNoRound;
    Bytes value;
  };

  /// Handles a prepare; returns true (promise granted) when round >= the
  /// current promise, after raising the promise.
  bool on_prepare(Round round) {
    if (round < promised_) return false;
    promised_ = round;
    return true;
  }

  /// Handles an accept; returns true when granted (round >= promise).
  /// The value view may borrow a receive buffer — the acceptor copies it
  /// into owned state here, at the single point where retention happens.
  bool on_accept(Round round, Instance instance, BytesView value) {
    if (round < promised_) return false;
    promised_ = round;
    accepted_[instance] = AcceptedPair{round, Bytes(value.begin(), value.end())};
    return true;
  }

  [[nodiscard]] Round promised() const { return promised_; }

  [[nodiscard]] const AcceptedPair* accepted(Instance i) const {
    auto it = accepted_.find(i);
    return it == accepted_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const std::map<Instance, AcceptedPair>& all_accepted() const {
    return accepted_;
  }

  /// Drops the pair of one decided instance: once the decided log holds the
  /// value, that entry answers every reader of the pair, and a PROMISE
  /// reports it as decided, which is stronger than an accepted pair.
  void forget(Instance i) { accepted_.erase(i); }

  /// Frees acceptor state at and below a decided prefix (log compaction).
  void forget_upto(Instance i) {
    accepted_.erase(accepted_.begin(), accepted_.lower_bound(i));
  }

  /// Crash-recovery support: serialize/restore the durable part of the
  /// acceptor (its promise and accepted pairs).
  [[nodiscard]] Bytes encode() const {
    std::size_t size = sizeof(Round) + 4;
    for (const auto& [i, pair] : accepted_) {
      size += sizeof(Instance) + sizeof(Round) + 4 + pair.value.size();
    }
    Bytes out(size);
    FlatWriter w(out);
    w.put(promised_);
    w.put(static_cast<std::uint32_t>(accepted_.size()));
    for (const auto& [i, pair] : accepted_) {
      w.put(i);
      w.put(pair.round);
      w.put_bytes(pair.value);
    }
    return out;
  }

  static Acceptor decode(BytesView payload) {
    BufReader r(payload);
    Acceptor a;
    a.promised_ = r.get<Round>();
    auto count = r.get<std::uint32_t>();
    for (std::uint32_t k = 0; k < count; ++k) {
      Instance i = r.get<Instance>();
      AcceptedPair pair;
      pair.round = r.get<Round>();
      pair.value = r.get_bytes();
      a.accepted_.emplace(i, std::move(pair));
    }
    return a;
  }

 private:
  Round promised_ = kNoRound;
  std::map<Instance, AcceptedPair> accepted_;
};

}  // namespace lls
