// Tests of LogConsensus log compaction: watermark clamping, memory release,
// continued operation, and cluster-level behaviour after compaction; and of
// leader-driven compaction: the safe point, its hint and KvCore compacting
// below it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "consensus/experiment.h"
#include "consensus/log_consensus.h"
#include "net/link.h"
#include "net/topology.h"
#include "rsm/kv_core.h"
#include "shard/sharded_replica.h"
#include "testing_util.h"

namespace lls {
namespace {

using testing::FakeRuntime;

class FixedOmega final : public OmegaActor {
 public:
  explicit FixedOmega(ProcessId leader) : leader_(leader) {}
  void on_start(Runtime&) override {}
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime&, TimerId) override {}
  [[nodiscard]] ProcessId leader() const override { return leader_; }

 private:
  ProcessId leader_;
};

Bytes val(std::uint8_t x) { return Bytes{std::byte{x}}; }

struct Fixture {
  FixedOmega omega;
  LogConsensus consensus;
  FakeRuntime rt;

  explicit Fixture(ProcessId self = 2, int n = 3, ProcessId leader = 0)
      : omega(leader), consensus(LogConsensusConfig{}, &omega), rt(self, n) {
    consensus.on_start(rt);
  }

  void decide(Instance i, std::uint8_t x) {
    consensus.on_message(rt, 0, msg_type::kDecide,
                         DecideMsg{i, val(x)}.encode());
  }
};

TEST(Compaction, ClampsToDecidedPrefix) {
  Fixture f;
  f.decide(0, 1);
  f.decide(1, 2);
  f.decide(3, 4);  // gap at 2: first_unknown stays 2
  EXPECT_EQ(f.consensus.compact(100), 2u);
  EXPECT_EQ(f.consensus.compacted_upto(), 2u);
}

TEST(Compaction, ReleasesEntriesAndKeepsSemantics) {
  Fixture f;
  for (Instance i = 0; i < 10; ++i) f.decide(i, static_cast<std::uint8_t>(i));
  EXPECT_EQ(f.consensus.log_entries_held(), 10u);
  EXPECT_EQ(f.consensus.compact(7), 7u);
  EXPECT_EQ(f.consensus.log_entries_held(), 3u);
  EXPECT_EQ(f.consensus.log_size(), 10u);
  EXPECT_EQ(f.consensus.first_unknown(), 10u);
  // Compacted decisions are no longer retrievable; later ones are.
  EXPECT_FALSE(f.consensus.decision(3).has_value());
  ASSERT_TRUE(f.consensus.decision(8).has_value());
  EXPECT_EQ(*f.consensus.decision(8), val(8));
}

TEST(Compaction, NeverMovesBackwards) {
  Fixture f;
  for (Instance i = 0; i < 5; ++i) f.decide(i, 1);
  EXPECT_EQ(f.consensus.compact(4), 4u);
  EXPECT_EQ(f.consensus.compact(2), 4u);  // no-op, stays at 4
}

TEST(Compaction, LateDecideForCompactedInstanceIsIgnored) {
  Fixture f;
  f.decide(0, 1);
  f.decide(1, 2);
  ASSERT_EQ(f.consensus.compact(2), 2u);
  int notifications = 0;
  obs::Subscription sub = f.rt.obs().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide),
      [&](const obs::Event&) { ++notifications; });
  // A duplicate DECIDE for instance 0 arrives after compaction: idempotent,
  // no re-notification, and even a *different* value does not trip the
  // agreement check (the original value is gone; the sender is stale).
  f.decide(0, 1);
  EXPECT_EQ(notifications, 0);
  EXPECT_EQ(f.consensus.first_unknown(), 2u);
}

TEST(Compaction, ContinuesDecidingAfterCompaction) {
  Fixture f;
  f.decide(0, 1);
  f.decide(1, 2);
  f.consensus.compact(2);
  std::vector<Instance> notified;
  obs::Subscription sub = f.rt.obs().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide),
      [&](const obs::Event& e) { notified.push_back(e.a); });
  f.decide(2, 3);
  f.decide(3, 4);
  EXPECT_EQ(notified, (std::vector<Instance>{2, 3}));
  EXPECT_EQ(f.consensus.first_unknown(), 4u);
}

TEST(Compaction, ClusterKeepsWorkingWithPeriodicCompaction) {
  // Full simulated cluster; every process compacts its applied prefix every
  // 500ms. The workload must still decide everything with agreement.
  ConsensusExperiment exp;
  exp.n = 5;
  exp.seed = 71;
  exp.links = make_all_timely({500, 2 * kMillisecond});
  exp.num_values = 60;
  exp.propose_interval = 50 * kMillisecond;
  exp.horizon = 30 * kSecond;

  SimConfig config;
  config.n = exp.n;
  config.seed = exp.seed;
  Simulator sim(config, exp.links);
  std::vector<CeNode*> nodes;
  for (ProcessId p = 0; p < static_cast<ProcessId>(exp.n); ++p) {
    nodes.push_back(&sim.emplace_actor<CeNode>(p, exp.ce, exp.log_config));
  }
  for (int k = 0; k < exp.num_values; ++k) {
    TimePoint at = exp.first_propose + k * exp.propose_interval;
    sim.schedule(at, [&, k]() {
      nodes[static_cast<std::size_t>(k % exp.n)]->consensus().propose(
          make_value(static_cast<std::uint64_t>(k + 1)));
    });
  }
  sim.schedule_every(500 * kMillisecond, 500 * kMillisecond, [&]() {
    for (auto* node : nodes) {
      auto& c = node->consensus();
      c.compact(c.first_unknown());
    }
    return sim.now() < exp.horizon;
  });
  sim.start();
  sim.run_until(exp.horizon);

  for (auto* node : nodes) {
    EXPECT_EQ(node->consensus().first_unknown(), 60u);
    // Memory bounded: nearly everything was compacted away.
    EXPECT_LT(node->consensus().log_entries_held(), 30u);
  }
}

// --- leader-driven compaction ------------------------------------------------

constexpr Instance kTail = LogConsensus::kCompactTail;
constexpr Instance kChunk = LogConsensus::kCompactChunk;

/// One KvCore of a 3-replica group on a hand-cranked runtime.
struct CoreFixture {
  FixedOmega omega;
  FakeRuntime rt;  // owns the plane the core's gauges live on: outlives it
  KvCore core;

  CoreFixture(ProcessId self, ProcessId leader)
      : omega(leader),
        rt(self, 3),
        core(KvCoreOptions{.omega = &omega, .consensus = {}, .replica = {}}) {
    core.on_start(rt);
  }

  LogConsensus& consensus() { return core.consensus(); }

  void deliver(ProcessId src, MessageType type, const Bytes& payload) {
    core.on_message(rt, src, type, payload);
  }

  void tick() { ASSERT_TRUE(rt.fire_next_timer(core)); }

  /// Leader only: Phase 1 completed with a promise from p1.
  void make_ready() {
    tick();
    deliver(1, msg_type::kPromise,
            PromiseMsg{consensus().current_round(), {}}.encode());
    ASSERT_TRUE(consensus().is_leader_ready());
  }

  /// Leader only: submits one write and has p1 accept it, reporting that
  /// it has decided everything below the new instance. p2 says nothing.
  void decide_one() {
    const Instance i = consensus().first_unknown();
    core.submit(KvOp::kPut, "k", "v");
    deliver(1, msg_type::kAccepted,
            AcceptedMsg{consensus().current_round(), i, 0, i}.encode());
    ASSERT_EQ(consensus().first_unknown(), i + 1);
  }

  /// Follower only: learns `count` more no-op decisions from p0.
  void learn(Instance count) {
    const Instance from = consensus().first_unknown();
    for (Instance i = from; i < from + count; ++i) {
      deliver(0, msg_type::kDecide, DecideMsg{i, Bytes{}}.encode());
    }
  }

  [[nodiscard]] int hints_sent() const {
    return rt.count_sent(1, msg_type::kCompact) +
           rt.count_sent(2, msg_type::kCompact);
  }

  /// The `upto` of the last hint sent to `dst`.
  [[nodiscard]] Instance last_hint(ProcessId dst) const {
    Instance upto = 0;
    for (const auto& s : rt.sent()) {
      if (s.dst == dst && s.type == msg_type::kCompact) {
        upto = CompactMsg::decode(s.payload).upto;
      }
    }
    return upto;
  }
};

TEST(LeaderCompaction, OneSilentPeerPinsTheSafePoint) {
  CoreFixture f(/*self=*/0, /*leader=*/0);
  f.make_ready();
  const Instance n = 4 * kChunk;
  for (Instance i = 0; i < n; ++i) f.decide_one();
  // p2 never answers: the ticks' catch-up attempts to it back off, which
  // marks it as not responding. It still counts.
  for (int t = 0; t < 10; ++t) f.tick();
  EXPECT_EQ(f.consensus().safe_point(), 0u);
  EXPECT_EQ(f.consensus().compacted_upto(), 0u);
  EXPECT_EQ(f.consensus().log_entries_held(), n);
  EXPECT_EQ(f.hints_sent(), 0);
}

TEST(LeaderCompaction, CompactsOnlyBelowEveryPeersWatermarkMinusTheTail) {
  CoreFixture f(/*self=*/0, /*leader=*/0);
  f.make_ready();
  const Instance n = 4 * kChunk;
  for (Instance i = 0; i < n; ++i) f.decide_one();
  for (int t = 0; t < 10; ++t) f.tick();
  ASSERT_EQ(f.consensus().compacted_upto(), 0u);

  // p2 reports half the log: it is now the slowest peer.
  f.deliver(2, msg_type::kDecideAck, DecideAckMsg{n / 2}.encode());
  EXPECT_EQ(f.consensus().safe_point(), n / 2);
  EXPECT_EQ(f.consensus().compacted_upto(), n / 2 - kTail);
  EXPECT_EQ(f.last_hint(1), n / 2);
  EXPECT_EQ(f.last_hint(2), n / 2);

  // p2 has everything; p1 last reported n - 1, so p1 binds now.
  f.deliver(2, msg_type::kDecideAck, DecideAckMsg{n}.encode());
  EXPECT_EQ(f.consensus().safe_point(), n - 1);
  EXPECT_EQ(f.consensus().compacted_upto(), n - 1 - kTail);
  EXPECT_EQ(f.last_hint(1), n - 1);
  EXPECT_EQ(f.consensus().log_entries_held(), kTail + 1);
}

TEST(LeaderCompaction, NoHintGoesOutWhileNothingIsDecided) {
  CoreFixture f(/*self=*/0, /*leader=*/0);
  f.make_ready();
  const Instance n = 4 * kChunk;
  for (Instance i = 0; i < n; ++i) {
    f.decide_one();
    f.deliver(2, msg_type::kDecideAck, DecideAckMsg{i + 1}.encode());
  }
  // The tail: p1 learns the last decision too.
  f.deliver(1, msg_type::kDecideAck, DecideAckMsg{n}.encode());
  EXPECT_GE(f.hints_sent(), 2 * static_cast<int>(n / kChunk - 1));
  const Instance compacted = f.consensus().compacted_upto();
  EXPECT_GT(compacted, 0u);

  f.rt.clear_sent();
  for (int t = 0; t < 500; ++t) f.tick();  // ten seconds without a decision
  EXPECT_EQ(f.hints_sent(), 0);
  EXPECT_EQ(f.consensus().compacted_upto(), compacted);
}

TEST(FollowerCompaction, CompactsOnAHintButNeverAboveItsAppliedPrefix) {
  CoreFixture f(/*self=*/2, /*leader=*/0);
  const Instance applied = 3 * kChunk;
  f.learn(applied);
  ASSERT_EQ(f.core.applied_upto(), applied);

  // Less than a chunk above the tail: not worth a compaction yet.
  f.deliver(0, msg_type::kCompact, CompactMsg{kTail + kChunk - 1}.encode());
  EXPECT_EQ(f.consensus().compacted_upto(), 0u);

  // A hint beyond what this replica has applied: the tail is kept below
  // the applied prefix, not below the hint.
  f.deliver(0, msg_type::kCompact, CompactMsg{10 * kChunk}.encode());
  EXPECT_EQ(f.consensus().compacted_upto(), applied - kTail);
  EXPECT_EQ(f.consensus().log_entries_held(), kTail);

  // As it applies more, it compacts a chunk at a time, still keeping the
  // tail below its applied prefix.
  f.learn(kChunk);
  EXPECT_EQ(f.consensus().compacted_upto(), applied + kChunk - kTail);
  f.learn(kChunk - 1);
  EXPECT_EQ(f.consensus().compacted_upto(), applied + kChunk - kTail);
}

TEST(FollowerCompaction, HintFromADeposedLeaderIsClampedTheSameWay) {
  CoreFixture f(/*self=*/2, /*leader=*/0);
  const Instance applied = 2 * kChunk + kTail;
  f.learn(applied);
  // p1 led an earlier epoch; Omega trusts p0 now. Its point was a bound on
  // every prefix when it was sent, so it still counts, clamped as usual.
  f.deliver(1, msg_type::kCompact, CompactMsg{applied + kChunk}.encode());
  EXPECT_EQ(f.consensus().compacted_upto(), applied - kTail);
  // A stale, lower hint never moves anything back.
  f.deliver(0, msg_type::kCompact, CompactMsg{kChunk}.encode());
  EXPECT_EQ(f.consensus().safe_point(), applied + kChunk);
  EXPECT_EQ(f.consensus().compacted_upto(), applied - kTail);
}

TEST(LeaderCompaction, EveryLiveReplicaCanStillWinPhaseOne) {
  // The churn x compaction hazard (DESIGN.md §15) as a regression test:
  // under load, one follower is cut off for two seconds and then healed,
  // and later two leaders in a row are crashed. Compaction runs by itself
  // throughout. At every instant no replica may have compacted past
  // another's decided prefix: that is the PREPARE `from` the other would
  // campaign with, and the compaction guard refuses such a candidate.
  constexpr int kN = 5;
  const LinkFactory links = make_all_timely({500, 2 * kMillisecond});
  Simulator sim(SimConfig{kN, /*seed=*/11, 10 * kMillisecond}, links);
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < kN; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = CeOmegaConfig{},
                                     .consensus = LogConsensusConfig{},
                                     .sharded = {}}));
  }
  auto group = [&](ProcessId p) -> KvCore& { return replicas[p]->group(0); };
  auto leader = [&]() {
    for (ProcessId p = 0; p < kN; ++p) {
      if (sim.alive(p) && group(p).consensus().is_leader_ready()) return p;
    }
    return kNoProcess;
  };

  int ops = 0;
  auto load = [&](TimePoint from, TimePoint to) {
    sim.schedule_every(from, 1 * kMillisecond, [&, to]() {
      const auto p = static_cast<ProcessId>(ops % kN);
      if (sim.alive(p)) {
        replicas[p]->submit(KvOp::kPut, "k" + std::to_string(ops % 16),
                            std::to_string(ops));
        ++ops;
      }
      return sim.now() < to;
    });
  };
  load(1 * kSecond, 9 * kSecond);
  load(13 * kSecond, 14 * kSecond);
  load(17 * kSecond, 18 * kSecond);

  // Follower cut off from everyone between 3 s and 5 s.
  ProcessId cut = kNoProcess;
  sim.schedule(3 * kSecond, [&]() {
    cut = leader() == kN - 1 ? 0 : kN - 1;
    for (ProcessId q = 0; q < kN; ++q) {
      if (q == cut) continue;
      sim.network().set_link(cut, q, std::make_unique<DeadLink>());
      sim.network().set_link(q, cut, std::make_unique<DeadLink>());
    }
  });
  sim.schedule(5 * kSecond, [&]() {
    for (ProcessId q = 0; q < kN; ++q) {
      if (q == cut) continue;
      sim.network().set_link(cut, q, links(cut, q));
      sim.network().set_link(q, cut, links(q, cut));
    }
  });

  // Hints sent while writes are decided, and in an idle second after.
  int hints_loaded = 0;
  int hints_idle = 0;
  obs::Subscription sends = sim.plane().bus().subscribe(
      obs::mask_of(obs::EventType::kSend), [&](const obs::Event& e) {
        if (e.mtype != msg_type::kCompact) return;
        if (e.t < 9 * kSecond) ++hints_loaded;
        if (e.t >= 10 * kSecond && e.t < 11 * kSecond) ++hints_idle;
      });

  int overruns = 0;
  Instance cut_prefix_at_heal = 0;
  Instance max_compacted_at_heal = 0;
  sim.schedule_every(1 * kSecond, 5 * kMillisecond, [&]() {
    for (ProcessId p = 0; p < kN; ++p) {
      for (ProcessId q = 0; q < kN; ++q) {
        if (!sim.alive(p) || !sim.alive(q)) continue;
        if (group(q).consensus().compacted_upto() >
            group(p).consensus().first_unknown()) {
          ++overruns;
        }
      }
    }
    if (sim.now() == 5 * kSecond - 5 * kMillisecond) {
      cut_prefix_at_heal = group(cut).consensus().first_unknown();
      for (ProcessId q = 0; q < kN; ++q) {
        max_compacted_at_heal = std::max(
            max_compacted_at_heal, group(q).consensus().compacted_upto());
      }
    }
    return true;
  });

  std::vector<ProcessId> crashed;
  for (TimePoint at : {12 * kSecond, 16 * kSecond}) {
    sim.schedule(at, [&]() {
      const ProcessId l = leader();
      ASSERT_NE(l, kNoProcess);
      crashed.push_back(l);
      sim.crash_now(l);
    });
  }

  sim.start();
  sim.run_until(11 * kSecond);
  EXPECT_EQ(overruns, 0);
  EXPECT_GT(hints_loaded, 0);
  EXPECT_EQ(hints_idle, 0);
  // The cut follower pinned everyone below its prefix, and lagged enough
  // for that to matter.
  EXPECT_LE(max_compacted_at_heal, cut_prefix_at_heal);
  EXPECT_GT(group(0).consensus().first_unknown(),
            cut_prefix_at_heal + 4 * kChunk);
  const Instance decided = group(0).consensus().first_unknown();
  for (ProcessId p = 0; p < kN; ++p) {
    EXPECT_EQ(group(p).consensus().first_unknown(), decided) << "p" << p;
    EXPECT_GT(group(p).consensus().compacted_upto(), 0u) << "p" << p;
    EXPECT_LT(group(p).consensus().log_entries_held(), kTail + 2 * kChunk)
        << "p" << p;
  }

  sim.run_until(20 * kSecond);
  EXPECT_EQ(overruns, 0);
  ASSERT_EQ(crashed.size(), 2u);
  const ProcessId last = leader();
  ASSERT_NE(last, kNoProcess);
  EXPECT_NE(last, crashed[0]);
  EXPECT_NE(last, crashed[1]);
  for (ProcessId p = 0; p < kN; ++p) {
    if (!sim.alive(p)) continue;
    EXPECT_EQ(group(p).store().applied(), static_cast<std::uint64_t>(ops))
        << "p" << p;
    EXPECT_EQ(group(p).store().digest(), group(last).store().digest());
  }
}

}  // namespace
}  // namespace lls
