// White-box tests of the LogConsensus protocol state machine, driven
// message-by-message through a FakeRuntime with a scripted Omega oracle.
// These pin down the wire-level contract: ballot arithmetic, Phase 1
// merging, no-op gap filling, nack-triggered abdication, and the
// watermark commit path: commit_upto piggyback, idle-tail flush and the
// backed-off catch-up of stalled followers; and age-based retransmission.
#include <gtest/gtest.h>

#include <memory>

#include "consensus/log_consensus.h"
#include "testing_util.h"

namespace lls {
namespace {

using testing::FakeRuntime;

/// Omega stub with an externally scripted output.
class FixedOmega final : public OmegaActor {
 public:
  explicit FixedOmega(ProcessId leader) : leader_(leader) {}
  void on_start(Runtime&) override {}
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime&, TimerId) override {}
  [[nodiscard]] ProcessId leader() const override { return leader_; }
  void set(ProcessId leader) { leader_ = leader; }

 private:
  ProcessId leader_;
};

Bytes val(std::uint8_t x) { return Bytes{std::byte{x}}; }

struct Fixture {
  FixedOmega omega;
  LogConsensus consensus;
  FakeRuntime rt;

  explicit Fixture(ProcessId self, int n, ProcessId leader,
                   LogConsensusConfig config = {})
      : omega(leader), consensus(config, &omega), rt(self, n) {
    consensus.on_start(rt);
  }

  /// Fires the earliest pending timer: the tick, or a due fence wake.
  void tick() { ASSERT_TRUE(rt.fire_next_timer(consensus)); }

  /// Leader only: Phase 1 completed with a promise from p1.
  void make_ready() {
    tick();
    deliver(1, msg_type::kPromise,
            PromiseMsg{consensus.current_round(), {}}.encode());
    ASSERT_TRUE(consensus.is_leader_ready());
  }

  /// Follower `q`'s ACCEPTED for instance `i`, reporting watermark `upto`.
  void accepted(ProcessId q, Instance i, Instance upto) {
    deliver(q, msg_type::kAccepted,
            AcceptedMsg{consensus.current_round(), i, 0, upto}.encode());
  }

  void deliver(ProcessId src, MessageType type, const Bytes& payload) {
    consensus.on_message(rt, src, type, payload);
  }

  /// Last message of `type` sent to `dst`, decoded by the caller.
  [[nodiscard]] const Bytes* last_sent(ProcessId dst, MessageType type) const {
    const Bytes* found = nullptr;
    for (const auto& s : rt.sent()) {
      if (s.dst == dst && s.type == type) found = &s.payload;
    }
    return found;
  }
};

TEST(LogConsensusUnit, LeaderPreparesWithOwnBallot) {
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/1);
  f.tick();
  const Bytes* prep = f.last_sent(0, msg_type::kPrepare);
  ASSERT_NE(prep, nullptr);
  auto msg = PrepareMsg::decode(*prep);
  EXPECT_EQ(msg.round % 3, 1);  // ballot owned by process 1
  EXPECT_EQ(msg.from, 0u);
  EXPECT_NE(f.last_sent(2, msg_type::kPrepare), nullptr);
  EXPECT_FALSE(f.consensus.is_leader_ready());
}

TEST(LogConsensusUnit, NonLeaderForwardsProposals) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.consensus.propose(val(9));
  const Bytes* fwd = f.last_sent(0, msg_type::kForward);
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(ForwardMsg::decode(*fwd).value, val(9));
  // And it re-forwards on ticks until the value is decided.
  f.rt.clear_sent();
  f.tick();
  EXPECT_NE(f.last_sent(0, msg_type::kForward), nullptr);
}

TEST(LogConsensusUnit, MajorityPromisesMakeLeaderReady) {
  Fixture f(/*self=*/0, /*n=*/5, /*leader=*/0);
  f.tick();  // sends PREPARE(round 0)
  EXPECT_FALSE(f.consensus.is_leader_ready());
  Round r = f.consensus.current_round();
  // Two promises + self = majority of 5.
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  EXPECT_FALSE(f.consensus.is_leader_ready());
  f.deliver(2, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  EXPECT_TRUE(f.consensus.is_leader_ready());
}

TEST(LogConsensusUnit, ReadyLeaderDrivesProposalToDecision) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());

  f.rt.clear_sent();
  f.consensus.propose(val(7));  // eager dispatch: ACCEPTs go out now
  const Bytes* acc = f.last_sent(1, msg_type::kAccept);
  ASSERT_NE(acc, nullptr);
  auto msg = AcceptMsg::decode(*acc);
  EXPECT_EQ(msg.round, r);
  EXPECT_EQ(msg.instance, 0u);
  EXPECT_EQ(msg.value, val(7));

  // One ACCEPTED completes the majority (self counts).
  f.deliver(1, msg_type::kAccepted, AcceptedMsg{r, 0}.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  EXPECT_EQ(*f.consensus.decision(0), val(7));
  // Idle tail: no ACCEPT follows to carry commit_upto, so every follower
  // not yet known to be silent is sent the DECIDE at once.
  EXPECT_NE(f.last_sent(1, msg_type::kDecide), nullptr);
  EXPECT_NE(f.last_sent(2, msg_type::kDecide), nullptr);
}

TEST(LogConsensusUnit, DecideRetransmittedUntilAcked) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.make_ready();
  f.consensus.propose(val(7));
  f.accepted(1, 0, 0);
  ASSERT_TRUE(f.consensus.decision(0).has_value());

  // p1 got the tail DECIDE and reports watermark 1; p2 never answered.
  // After one full retry period p2 is stalled and is caught up; p1 is not.
  f.deliver(1, msg_type::kDecideAck, DecideAckMsg{1}.encode());
  f.rt.clear_sent();
  f.tick();
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kDecide), 0);
  f.tick();
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kDecide), 0);
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kDecide), 1);

  f.deliver(2, msg_type::kDecideAck, DecideAckMsg{1}.encode());
  f.rt.clear_sent();
  for (int k = 0; k < 100; ++k) f.tick();
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kDecide), 0);  // quiescent
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kDecide), 0);
}

TEST(LogConsensusUnit, NoDecideWhileAcceptsFlow) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.make_ready();
  f.rt.clear_sent();
  f.consensus.propose(val(1));
  f.consensus.propose(val(2));
  f.accepted(1, 0, 0);  // decides 0 while 1 is still in flight
  f.accepted(2, 0, 0);  // a late ack, still not idle
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  f.consensus.propose(val(3));
  f.accepted(1, 1, 1);  // decides 1 while 2 is in flight
  ASSERT_TRUE(f.consensus.decision(1).has_value());
  f.consensus.propose(val(4));

  // The commits ride on the next ACCEPT instead of a DECIDE fan-out.
  for (ProcessId q : {1, 2}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kDecide), 0);
    const Bytes* acc = f.last_sent(q, msg_type::kAccept);
    ASSERT_NE(acc, nullptr);
    auto msg = AcceptMsg::decode(*acc);
    EXPECT_EQ(msg.instance, 3u);
    EXPECT_EQ(msg.commit_upto, 2u);
  }
}

TEST(LogConsensusUnit, IdleTailFlushSendsOneDecidePerLaggingFollower) {
  Fixture f(/*self=*/0, /*n=*/5, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  f.deliver(2, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());
  f.rt.clear_sent();
  f.consensus.propose(val(7));
  f.accepted(1, 0, 0);
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kDecide), 0);  // not decided yet
  f.accepted(2, 0, 0);  // completes the majority of 5: the idle tail
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  for (ProcessId q : {1, 2, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kDecide), 1);
  }
  f.accepted(3, 0, 0);  // a late ack: its DECIDE is already on the way
  EXPECT_EQ(f.rt.count_sent(3, msg_type::kDecide), 1);

  // The follower answers the DECIDE with its watermark.
  Fixture follower(/*self=*/1, /*n=*/5, /*leader=*/0);
  follower.deliver(0, msg_type::kAccept, AcceptMsg{r, 0, 0, val(7)}.encode());
  follower.deliver(0, msg_type::kDecide, DecideMsg{0, val(7)}.encode());
  const Bytes* ack = follower.last_sent(0, msg_type::kDecideAck);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(DecideAckMsg::decode(*ack).instance, 1u);

  // p4 never reports a watermark: once stalled it is caught up, and from
  // then on it is no longer flushed as a responding follower.
  for (ProcessId q : {1, 2, 3}) {
    f.deliver(q, msg_type::kDecideAck, DecideAckMsg{1}.encode());
  }
  f.rt.clear_sent();
  f.tick();
  f.tick();
  for (ProcessId q : {1, 2, 3}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kDecide), 0);
  }
  EXPECT_EQ(f.rt.count_sent(4, msg_type::kDecide), 1);
  f.rt.clear_sent();
  f.consensus.propose(val(8));
  f.accepted(1, 1, 1);
  f.accepted(2, 1, 1);
  ASSERT_TRUE(f.consensus.decision(1).has_value());
  for (ProcessId q : {1, 2, 3}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kDecide), 1);
  }
  EXPECT_EQ(f.rt.count_sent(4, msg_type::kDecide), 0);
}

/// Engines wired through their FakeRuntimes: pump() delivers every recorded
/// send to its destination until none is left, losing what `drop` selects.
struct Cluster {
  std::vector<std::unique_ptr<Fixture>> nodes;

  Cluster(int n, ProcessId leader) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      nodes.push_back(std::make_unique<Fixture>(p, n, leader));
    }
  }

  Fixture& at(ProcessId p) { return *nodes[p]; }

  template <typename Drop>
  void pump(Drop drop) {
    for (bool moved = true; moved;) {
      moved = false;
      for (ProcessId src = 0; src < static_cast<ProcessId>(nodes.size());
           ++src) {
        std::vector<FakeRuntime::Sent> sent = at(src).rt.sent();
        at(src).rt.clear_sent();
        for (const auto& m : sent) {
          if (drop(src, m)) continue;
          at(m.dst).deliver(src, m.type, m.payload);
          moved = true;
        }
      }
    }
  }
};

TEST(LogConsensusUnit, FollowerThatMissedAnAcceptIsCaughtUpAfterOneStalledTick) {
  // The leader stays busy (instance 3's ACCEPTs are always lost), so no
  // idle-tail flush happens; p2 also misses the ACCEPT for instance 0 and
  // can never commit past it from commit_upto alone.
  Cluster c(/*n=*/3, /*leader=*/0);
  auto lossy = [](ProcessId, const FakeRuntime::Sent& m) {
    if (m.type != msg_type::kAccept) return false;
    const auto acc = AcceptMsg::decode(m.payload);
    return acc.instance == 3 || (acc.instance == 0 && m.dst == 2);
  };
  c.at(0).tick();
  c.pump(lossy);
  ASSERT_TRUE(c.at(0).consensus.is_leader_ready());
  for (std::uint8_t x = 1; x <= 4; ++x) c.at(0).consensus.propose(val(x));
  c.pump(lossy);
  for (Instance i = 0; i < 3; ++i) {
    ASSERT_TRUE(c.at(0).consensus.decision(i).has_value());
  }
  EXPECT_EQ(c.at(2).consensus.first_unknown(), 0u);

  c.at(0).tick();  // records the commit point; nobody is stalled yet
  c.pump(lossy);
  EXPECT_EQ(c.at(2).consensus.first_unknown(), 0u);
  c.at(0).tick();  // p2 is one full period below it: caught up
  c.pump(lossy);
  ASSERT_EQ(c.at(2).consensus.first_unknown(), 3u);
  EXPECT_EQ(*c.at(2).consensus.decision(0), val(1));
}

TEST(LogConsensusUnit, StaleIdleLeaderLearnsARivalsDecisionFromFollowers) {
  // Regression for a convergence failure found by the consensus campaign
  // (seeds 381, 395, 511, 550): p0 stays ready while cut off, p1 decides
  // an instance at a higher round, then Omega returns to p0. The idle p0
  // sends nothing that could be refused, so only the followers can tell it.
  Cluster c(/*n=*/3, /*leader=*/0);
  auto pump_all = [&c]() {
    c.pump([](ProcessId, const FakeRuntime::Sent&) { return false; });
  };
  auto cut_p0 = [](ProcessId src, const FakeRuntime::Sent& m) {
    return src == 0 || m.dst == 0;
  };
  c.at(0).tick();
  pump_all();
  ASSERT_TRUE(c.at(0).consensus.is_leader_ready());

  c.at(1).omega.set(1);
  c.at(2).omega.set(1);
  c.at(1).tick();
  c.pump(cut_p0);
  ASSERT_TRUE(c.at(1).consensus.is_leader_ready());
  c.at(1).consensus.propose(val(5));
  c.pump(cut_p0);
  ASSERT_EQ(c.at(2).consensus.first_unknown(), 1u);
  EXPECT_EQ(c.at(0).consensus.first_unknown(), 0u);

  c.at(1).omega.set(0);
  c.at(2).omega.set(0);
  for (int t = 0; t < 3; ++t) {
    for (ProcessId p = 0; p < 3; ++p) c.at(p).tick();
    pump_all();
  }
  ASSERT_EQ(c.at(0).consensus.first_unknown(), 1u);
  EXPECT_EQ(*c.at(0).consensus.decision(0), val(5));
  EXPECT_TRUE(c.at(0).consensus.is_leader_ready());  // still stale, still safe

  // Once the leader is known to have it, nobody sends anything.
  for (int t = 0; t < 100; ++t) {
    for (ProcessId p = 0; p < 3; ++p) c.at(p).tick();
  }
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(c.at(p).rt.sent().empty()) << "p" << p;
  }
}

TEST(LogConsensusUnit, SilentFollowerCatchUpIsBoundedAndBacksOff) {
  // The catch-up traffic a silent (crashed) follower draws over 1000 ticks
  // must not depend on how long the log is.
  auto run = [](std::uint8_t log_len) {
    Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
    f.make_ready();
    for (std::uint8_t x = 0; x < log_len; ++x) {
      f.consensus.propose(val(x));
      f.accepted(1, x, x);
      f.deliver(1, msg_type::kDecideAck, DecideAckMsg{x + 1u}.encode());
    }
    EXPECT_EQ(f.consensus.first_unknown(), log_len);
    f.rt.clear_sent();
    std::vector<int> attempts;
    int total = 0;
    for (int t = 0; t < 1000; ++t) {
      f.rt.clear_sent();
      f.tick();
      EXPECT_EQ(f.rt.count_sent(1, msg_type::kDecide), 0);
      const int sent = f.rt.count_sent(2, msg_type::kDecide);
      EXPECT_LE(sent, static_cast<int>(LogConsensus::kCatchupBatch));
      if (sent > 0) attempts.push_back(t);
      total += sent;
    }
    // The backoff doubles while the watermark does not move, up to the cap.
    int expect_gap = 1;
    for (std::size_t k = 1; k < attempts.size(); ++k) {
      EXPECT_EQ(attempts[k] - attempts[k - 1], expect_gap);
      expect_gap = std::min(expect_gap * 2, LogConsensus::kCatchupBackoffCap);
    }
    EXPECT_EQ(expect_gap, LogConsensus::kCatchupBackoffCap);
    return total;
  };
  const int short_log = run(100);
  EXPECT_EQ(short_log, run(200));
  EXPECT_LT(short_log, 2 * static_cast<int>(LogConsensus::kCatchupBatch));
}

TEST(LogConsensusUnit, SilentFollowerDoesNotPinCompaction) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.make_ready();
  for (std::uint8_t x = 0; x < 10; ++x) {
    f.consensus.propose(val(x));
    f.accepted(1, x, x);  // p2 never answers
  }
  EXPECT_EQ(f.consensus.compact(10), 10u);
  EXPECT_EQ(f.consensus.log_entries_held(), 0u);
}

TEST(LogConsensusUnit, PrepareIsResentByAgeOnlyToNonPromisers) {
  Fixture f(/*self=*/0, /*n=*/5, /*leader=*/0);
  f.tick();  // Phase 1: one PREPARE each, no same-tick re-send
  for (ProcessId q : {1, 2, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kPrepare), 1);
  }
  f.deliver(1, msg_type::kPromise,
            PromiseMsg{f.consensus.current_round(), {}}.encode());
  ASSERT_FALSE(f.consensus.is_leader_ready());
  f.rt.clear_sent();
  f.tick();  // a full retry period old: re-sent to the silent ones only
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kPrepare), 0);
  for (ProcessId q : {2, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kPrepare), 1);
  }
}

TEST(LogConsensusUnit, AcceptIsResentByAgeOnlyToFollowersThatHaveNotAcked) {
  Fixture f(/*self=*/0, /*n=*/5, /*leader=*/0);
  f.tick();
  const Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  f.deliver(2, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());
  const Duration period = LogConsensusConfig{}.retry_period;
  f.rt.advance(period / 4);  // off the tick grid
  f.rt.clear_sent();
  f.consensus.propose(val(1));
  for (ProcessId q : {1, 2, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kAccept), 1);
  }
  f.accepted(1, 0, 0);  // self + p1: still short of a majority of 5
  ASSERT_FALSE(f.consensus.decision(0).has_value());

  f.rt.clear_sent();
  f.tick();  // 3/4 of a period old: its ACCEPTEDs may still be on the wire
  for (ProcessId q : {1, 2, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kAccept), 0);
  }
  f.tick();  // past one period: re-sent to the followers that have not acked
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kAccept), 0);
  for (ProcessId q : {2, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kAccept), 1);
  }
  f.rt.clear_sent();
  f.tick();  // the re-send restarted the clock, which is a period old again
  for (ProcessId q : {2, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kAccept), 1);
  }
}

TEST(LogConsensusUnit, FencedCandidateCampaignsAtTheFenceExpiry) {
  // p1 granted the leader p0 an ACCEPTED, so its fence binds its own
  // candidacy until p0's window lapses. When p0 crashes and Omega moves
  // to p1, the PREPARE must leave at the expiry itself, not at the first
  // tick after it: the other acceptors' fences to p0 lapse at about the
  // same time, and a candidate that polls loses that race.
  LogConsensusConfig config;
  config.lease.enabled = true;
  Fixture f(/*self=*/1, /*n=*/5, /*leader=*/0, config);
  f.rt.advance(5 * kMillisecond);  // off the tick grid
  f.deliver(0, msg_type::kAccept, AcceptMsg{5, 0, 0, val(1)}.encode());
  const TimePoint expiry = f.consensus.fence_until();
  ASSERT_EQ(f.consensus.fence_holder(), 0u);
  ASSERT_EQ(expiry % config.retry_period, 5 * kMillisecond);
  f.omega.set(1);
  f.rt.clear_sent();
  while (f.rt.count_sent(2, msg_type::kPrepare) == 0) {
    f.tick();
    ASSERT_LE(f.rt.now(), expiry);
  }
  EXPECT_EQ(f.rt.now(), expiry);
  for (ProcessId q : {0, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kPrepare), 1);
  }
  f.deliver(2, msg_type::kPromise,
            PromiseMsg{f.consensus.current_round(), {}}.encode());
  f.rt.clear_sent();
  f.tick();  // the next tick comes before the PREPARE is a period old
  ASSERT_LT(f.rt.now() - expiry, config.retry_period);
  for (ProcessId q : {0, 2, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kPrepare), 0);
  }
  f.tick();
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kPrepare), 0);
  for (ProcessId q : {0, 3, 4}) {
    EXPECT_EQ(f.rt.count_sent(q, msg_type::kPrepare), 1);
  }
}

TEST(LogConsensusUnit, AcceptorGrantsAndReportsState) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  // Accept a value at round 0 (ballot of p0) for instance 1.
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 1, 0, val(5)}.encode());
  const Bytes* ack = f.last_sent(0, msg_type::kAccepted);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(AcceptedMsg::decode(*ack).instance, 1u);

  // A later PREPARE from p1 must report the accepted pair.
  f.rt.clear_sent();
  f.deliver(1, msg_type::kPrepare, PrepareMsg{1, 0}.encode());
  const Bytes* prom = f.last_sent(1, msg_type::kPromise);
  ASSERT_NE(prom, nullptr);
  auto msg = PromiseMsg::decode(*prom);
  ASSERT_EQ(msg.entries.size(), 1u);
  EXPECT_EQ(msg.entries[0].instance, 1u);
  EXPECT_EQ(msg.entries[0].accepted_round, 0);
  EXPECT_FALSE(msg.entries[0].decided);
  EXPECT_EQ(msg.entries[0].value, val(5));
}

TEST(LogConsensusUnit, StalePrepareGetsNack) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.deliver(1, msg_type::kPrepare, PrepareMsg{7, 0}.encode());
  f.rt.clear_sent();
  f.deliver(0, msg_type::kPrepare, PrepareMsg{3, 0}.encode());  // below 7
  const Bytes* nack = f.last_sent(0, msg_type::kNack);
  ASSERT_NE(nack, nullptr);
  auto msg = NackMsg::decode(*nack);
  EXPECT_EQ(msg.rejected_round, 3);
  EXPECT_EQ(msg.promised_round, 7);
}

TEST(LogConsensusUnit, NackMakesLeaderAbdicateAndRetryHigher) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round first = f.consensus.current_round();
  // A NACK citing a higher promise forces abdication...
  f.deliver(2, msg_type::kNack, NackMsg{first, first + 1}.encode());
  EXPECT_FALSE(f.consensus.is_leader_ready());
  // ...and the next tick re-prepares above the cited round.
  f.rt.clear_sent();
  f.tick();
  const Bytes* prep = f.last_sent(1, msg_type::kPrepare);
  ASSERT_NE(prep, nullptr);
  EXPECT_GT(PrepareMsg::decode(*prep).round, first + 1);
}

TEST(LogConsensusUnit, PhaseOneRecoversAcceptedValue) {
  // The new leader must re-propose a value some acceptor already accepted,
  // not its own pending value, for that instance.
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/1);
  f.consensus.propose(val(9));
  f.tick();  // PREPARE
  Round r = f.consensus.current_round();
  PromiseMsg promise;
  promise.round = r;
  promise.entries.push_back(PromiseEntry{0, /*accepted_round=*/0, false, val(5)});
  f.rt.clear_sent();
  f.deliver(0, msg_type::kPromise, promise.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());

  // Instance 0 must carry the recovered value 5; the local proposal 9 goes
  // to instance 1.
  const Bytes* acc0 = nullptr;
  const Bytes* acc1 = nullptr;
  for (const auto& s : f.rt.sent()) {
    if (s.type != msg_type::kAccept || s.dst != 0) continue;
    auto m = AcceptMsg::decode(s.payload);
    if (m.instance == 0) acc0 = &s.payload;
    if (m.instance == 1) acc1 = &s.payload;
  }
  ASSERT_NE(acc0, nullptr);
  ASSERT_NE(acc1, nullptr);
  EXPECT_EQ(AcceptMsg::decode(*acc0).value, val(5));
  EXPECT_EQ(AcceptMsg::decode(*acc1).value, val(9));
}

TEST(LogConsensusUnit, PhaseOneFillsGapsWithNoops) {
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/1);
  f.tick();
  Round r = f.consensus.current_round();
  // Acceptor reports an accepted value only at instance 2: instances 0, 1
  // are holes the new leader must fill with no-ops.
  PromiseMsg promise;
  promise.round = r;
  promise.entries.push_back(PromiseEntry{2, 0, false, val(5)});
  f.rt.clear_sent();
  f.deliver(0, msg_type::kPromise, promise.encode());

  int noops = 0;
  for (const auto& s : f.rt.sent()) {
    if (s.type != msg_type::kAccept || s.dst != 0) continue;
    auto m = AcceptMsg::decode(s.payload);
    if (m.instance < 2) {
      EXPECT_TRUE(m.value.empty());
      ++noops;
    }
  }
  EXPECT_EQ(noops, 2);
}

TEST(LogConsensusUnit, DecidedEntryInPromiseIsLearnedDirectly) {
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/1);
  f.tick();
  Round r = f.consensus.current_round();
  PromiseMsg promise;
  promise.round = r;
  promise.entries.push_back(PromiseEntry{0, kNoRound, true, val(8)});
  f.deliver(0, msg_type::kPromise, promise.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  EXPECT_EQ(*f.consensus.decision(0), val(8));
}

TEST(LogConsensusUnit, CommitUptoPiggybackDecidesPipelinedInstances) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  // Accept instance 0 at round 0, then an ACCEPT for instance 1 carrying
  // commit_upto = 1 (same round): instance 0 becomes decided locally
  // without an explicit DECIDE.
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 0, 0, val(1)}.encode());
  EXPECT_FALSE(f.consensus.decision(0).has_value());
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 1, 1, val(2)}.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  EXPECT_EQ(*f.consensus.decision(0), val(1));
  // The reply is sent after learning: it reports the new watermark.
  const Bytes* ack = f.last_sent(0, msg_type::kAccepted);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(AcceptedMsg::decode(*ack).decided_upto, 1u);
}

TEST(LogConsensusUnit, CommitUptoIgnoresOtherRoundAcceptances) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  // Instance 0 accepted at round 0; a *different* leader (round 1, ballot
  // of p1) claims commit_upto=1 — our round-0 value must NOT be committed
  // off that claim.
  f.deliver(0, msg_type::kAccept, AcceptMsg{0, 0, 0, val(1)}.encode());
  f.deliver(1, msg_type::kAccept, AcceptMsg{1, 1, 1, val(2)}.encode());
  EXPECT_FALSE(f.consensus.decision(0).has_value());
}

TEST(LogConsensusUnit, DecisionListenerFiresInInstanceOrder) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  std::vector<Instance> order;
  obs::Subscription sub = f.rt.obs().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide),
      [&](const obs::Event& e) { order.push_back(e.a); });
  f.deliver(0, msg_type::kDecide, DecideMsg{1, val(2)}.encode());
  EXPECT_TRUE(order.empty());  // instance 0 unknown: hold the line
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  EXPECT_EQ(order, (std::vector<Instance>{0, 1}));
  EXPECT_EQ(f.consensus.first_unknown(), 2u);
}

TEST(LogConsensusUnit, DuplicateDecideIsIdempotentAndAcked) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  int notifications = 0;
  obs::Subscription sub = f.rt.obs().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide),
      [&](const obs::Event&) { ++notifications; });
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(f.rt.count_sent(0, msg_type::kDecideAck), 2);  // always ack
}

TEST(LogConsensusUnit, ConflictingDecideThrowsAgreementTripwire) {
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  EXPECT_THROW(
      f.deliver(0, msg_type::kDecide, DecideMsg{0, val(2)}.encode()),
      std::logic_error);
}

TEST(LogConsensusUnit, CompactedAcceptorRefusesLaggardPrepare) {
  // Regression for an agreement violation found by the topology soak
  // (churn + compaction): an acceptor that compacted past a candidate's
  // log frontier can no longer report the decided values the candidate is
  // missing — neither the decided entry nor the accepted pair survives
  // below log_base_. Promising anyway lets the candidate treat those slots
  // as holes and no-op-fill instances that were in fact decided. The
  // acceptor must stay silent until the candidate has caught up.
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.deliver(0, msg_type::kDecide, DecideMsg{0, val(1)}.encode());
  f.deliver(0, msg_type::kDecide, DecideMsg{1, val(2)}.encode());
  f.deliver(0, msg_type::kDecide, DecideMsg{2, val(3)}.encode());
  ASSERT_EQ(f.consensus.compact(3), 3u);

  f.rt.clear_sent();
  f.deliver(1, msg_type::kPrepare, PrepareMsg{1, /*from=*/1}.encode());
  EXPECT_EQ(f.last_sent(1, msg_type::kPromise), nullptr);
  EXPECT_EQ(f.last_sent(1, msg_type::kNack), nullptr);

  // A caught-up candidate (frontier at the watermark) is served normally.
  f.deliver(1, msg_type::kPrepare, PrepareMsg{1, /*from=*/3}.encode());
  EXPECT_NE(f.last_sent(1, msg_type::kPromise), nullptr);
}

TEST(LogConsensusUnit, LeaderChangeAbandonsProposerRole) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());
  f.consensus.propose(val(4));
  EXPECT_EQ(f.consensus.pending_count(), 0u);  // in flight

  // Omega switches away; the next tick abdicates and forwards the
  // unfinished value to the new leader.
  f.omega.set(2);
  f.rt.clear_sent();
  f.tick();
  EXPECT_FALSE(f.consensus.is_leader_ready());
  const Bytes* fwd = f.last_sent(2, msg_type::kForward);
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(ForwardMsg::decode(*fwd).value, val(4));
}

TEST(LogConsensusUnit, StaleReadyLeaderNeverAssignsADecidedInstance) {
  // Regression for a liveness hole found by the randomized kv campaign
  // (seed 163): a leader that became ready with next_free_ == i, then
  // LEARNED instance i from a competing leader's decide, would assign its
  // next proposal to the already-decided slot i. learn(i) had already run,
  // so nothing ever displaced the value back to pending_, and abdication
  // dropped it as "decided" — the submission was silently lost.
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());

  // A competing leader decided instance 0 behind our back.
  f.deliver(2, msg_type::kDecide, DecideMsg{0, val(6)}.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());

  // Our proposal must land on a fresh instance, not the decided slot.
  f.rt.clear_sent();
  f.consensus.propose(val(9));
  const Bytes* acc = f.last_sent(1, msg_type::kAccept);
  ASSERT_NE(acc, nullptr);
  auto msg = AcceptMsg::decode(*acc);
  EXPECT_EQ(msg.instance, 1u);
  EXPECT_EQ(msg.value, val(9));

  // Losing leadership must hand the still-undecided value back to the
  // pending queue (and forward it to the new leader), not drop it.
  f.omega.set(2);
  f.rt.clear_sent();
  f.tick();
  EXPECT_FALSE(f.consensus.is_leader_ready());
  EXPECT_EQ(f.consensus.pending_count(), 1u);
  const Bytes* fwd = f.last_sent(2, msg_type::kForward);
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(ForwardMsg::decode(*fwd).value, val(9));
}

TEST(LogConsensusUnit, AbdicationRequeuesAValueDisplacedFromADecidedSlot) {
  // Belt-and-braces for the same hole: even if an in-flight entry somehow
  // sits on a slot decided with a different value at abdication time, the
  // value must be re-queued, not dropped.
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.tick();
  Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());
  f.consensus.propose(val(9));  // in flight at instance 0

  // A competing leader's decide for instance 0 arrives with another value:
  // the displaced value goes straight back to pending.
  f.deliver(2, msg_type::kDecide, DecideMsg{0, val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 1u);

  // And a duplicate of that decide must not disturb the queue.
  f.deliver(2, msg_type::kDecide, DecideMsg{0, val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 1u);
}

TEST(LogConsensusUnit, AbdicationLeavesRecoveredValuesToTheirSubmitters) {
  // Regression for an exponential log blow-up under dueling leaders found
  // by the kv campaign (seed 37): each abdication re-queued the values its
  // Phase 1 had recovered from earlier epochs, so every epoch re-submitted
  // all of them at fresh instances. Only the leader's own submissions are
  // owed placement by it; a recovered value's submitter keeps forwarding it.
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/1);
  f.consensus.propose(val(9));
  f.tick();
  PromiseMsg promise;
  promise.round = f.consensus.current_round();
  promise.entries.push_back(PromiseEntry{0, /*accepted_round=*/0, false, val(5)});
  f.deliver(0, msg_type::kPromise, promise.encode());
  ASSERT_TRUE(f.consensus.is_leader_ready());

  f.omega.set(2);
  f.rt.clear_sent();
  f.tick();
  EXPECT_FALSE(f.consensus.is_leader_ready());
  EXPECT_EQ(f.consensus.pending_count(), 1u);
  ASSERT_EQ(f.rt.count_sent(2, msg_type::kForward), 1);
  EXPECT_EQ(ForwardMsg::decode(*f.last_sent(2, msg_type::kForward)).value,
            val(9));
}

TEST(LogConsensusUnit, LeaderThatLosesASlotStepsDownBeforeCommittingPastIt) {
  // Regression for an agreement violation found by the consensus campaign
  // once followers push decisions to a stale leader: p0 proposed 9 at
  // instance 0 in round r, then learned that a rival decided 6 there. p1
  // still holds (r, 0, 9); an ACCEPT at round r with commit_upto 1 would
  // make p1 learn 9. The leader must step down and re-prepare instead.
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.make_ready();
  const Round r = f.consensus.current_round();
  f.consensus.propose(val(9));
  f.deliver(2, msg_type::kDecide, DecideMsg{0, val(6)}.encode());
  EXPECT_FALSE(f.consensus.is_leader_ready());
  EXPECT_EQ(f.consensus.pending_count(), 1u);  // 9 is still owed placement

  f.rt.clear_sent();
  f.consensus.propose(val(8));
  f.tick();
  for (const auto& m : f.rt.sent()) {
    EXPECT_NE(m.type, msg_type::kAccept);
  }
  const Bytes* prep = f.last_sent(1, msg_type::kPrepare);
  ASSERT_NE(prep, nullptr);
  EXPECT_GT(PrepareMsg::decode(*prep).round, r);
}

TEST(LogConsensusUnit, ForwardDeduplicatesAgainstLogAndQueue) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/2);
  f.deliver(1, msg_type::kForward, ForwardMsg{val(6)}.encode());
  f.deliver(1, msg_type::kForward, ForwardMsg{val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 1u);
  // Once decided, further forwards of the same value are dropped too.
  f.deliver(2, msg_type::kDecide, DecideMsg{0, val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 0u);  // pruned by the decision
  f.deliver(1, msg_type::kForward, ForwardMsg{val(6)}.encode());
  EXPECT_EQ(f.consensus.pending_count(), 0u);
}

TEST(LogConsensusUnit, CommitFromOwnPairRetiresPendingAndDropsThePair) {
  // The commit loop learns an instance from this follower's own accepted
  // pair; learn() then drops that pair, and must re-point the value it was
  // handed at the decided entry first, or the pending-queue match below
  // reads freed bytes and the submission is never retired.
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/0);
  f.consensus.propose(val(5));
  ASSERT_EQ(f.consensus.pending_count(), 1u);
  const Round r = 3;  // a ballot owned by p0
  f.deliver(0, msg_type::kAccept, AcceptMsg{r, 0, 0, val(5)}.encode());
  ASSERT_NE(f.consensus.acceptor().accepted(0), nullptr);
  f.deliver(0, msg_type::kAccept, AcceptMsg{r, 1, 1, val(6)}.encode());
  ASSERT_TRUE(f.consensus.decision(0).has_value());
  EXPECT_EQ(*f.consensus.decision(0), val(5));
  EXPECT_EQ(f.consensus.pending_count(), 0u);
  EXPECT_EQ(f.consensus.acceptor().accepted(0), nullptr);
  EXPECT_NE(f.consensus.acceptor().accepted(1), nullptr);  // still undecided
  EXPECT_EQ(f.consensus.accepted_pairs_held(), 1u);
  // A retransmitted ACCEPT for the decided instance is answered but not
  // held again.
  f.deliver(0, msg_type::kAccept, AcceptMsg{r, 0, 1, val(5)}.encode());
  EXPECT_EQ(f.consensus.acceptor().accepted(0), nullptr);
  EXPECT_EQ(f.consensus.accepted_pairs_held(), 1u);
}

}  // namespace
}  // namespace lls
