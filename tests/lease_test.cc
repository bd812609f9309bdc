// Leader-lease tests across three altitudes (DESIGN.md §14).
//
// Unit (FakeRuntime): the quorum-anchored lease state machine message by
// message — supports granted by PROMISE/ACCEPTED echoes, expiry after one
// window, renewal by ordinary traffic, the follower fence silencing rival
// proposers, the epoch fence, crash-recovery fence-all, and the sabotage
// knob's deliberate unsoundness.
//
// Simulation: at most one process's lease_valid() is true at any sampled
// instant, across an adversarial crash of the *current holder* — the
// no-two-holders invariant the local-read fast path rests on.
//
// Campaign: the randomized kv campaign with lease reads and the
// leaseholder assassin reports zero violations, while the fence-disabled
// sabotage build serves a stale read that the linearizability checker MUST
// flag — exactly once. The safety net is itself tested end to end.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/storage.h"
#include "consensus/log_consensus.h"
#include "net/topology.h"
#include "shard/sharded_replica.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "testing_util.h"

namespace lls {
namespace {

using testing::FakeRuntime;

constexpr Duration kWindow = 200 * kMillisecond;

/// Omega stub with an externally scripted output (no lease hint — the
/// consensus-layer lease must stand on the quorum machinery alone).
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

LogConsensusConfig leased_config() {
  LogConsensusConfig c;
  c.lease.enabled = true;
  c.lease.duration = kWindow;
  return c;
}

struct Fixture {
  // The runtime is declared first so it outlives the engine bound to it.
  FixedOmega omega;
  FakeRuntime rt;
  LogConsensus consensus;

  Fixture(ProcessId self, int n, ProcessId leader,
          LogConsensusConfig config = leased_config())
      : omega(leader), rt(self, n), consensus(config, &omega) {
    consensus.on_start(rt);
  }

  void tick() { ASSERT_TRUE(rt.fire_next_timer(consensus)); }

  void deliver(ProcessId src, MessageType type, const Bytes& payload) {
    consensus.on_message(rt, src, type, payload);
  }

  [[nodiscard]] const Bytes* last_sent(ProcessId dst, MessageType type) const {
    const Bytes* found = nullptr;
    for (const auto& s : rt.sent()) {
      if (s.dst == dst && s.type == type) found = &s.payload;
    }
    return found;
  }

  /// Drives self to ready leader, echoing the PREPARE timestamp from `q` so
  /// the promise doubles as a lease support.
  void become_ready_with_support(ProcessId q) {
    tick();
    const Bytes* prep = last_sent(q, msg_type::kPrepare);
    ASSERT_NE(prep, nullptr);
    auto msg = PrepareMsg::decode(*prep);
    PromiseMsg promise;
    promise.round = msg.round;
    promise.echo_ts = msg.ts;
    deliver(q, msg_type::kPromise, promise.encode());
  }
};

// --- Unit: grant / expire / renew -------------------------------------------

TEST(LeaseUnit, QuorumSupportGrantsLeaseAndExpiryRevokesIt) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  EXPECT_FALSE(f.consensus.lease_valid());
  f.become_ready_with_support(1);
  ASSERT_TRUE(f.consensus.is_leader_ready());
  // Self + the echoing follower = majority of 3.
  EXPECT_EQ(f.consensus.lease_supporters(), 2);
  EXPECT_TRUE(f.consensus.lease_valid());
  // The support dies exactly one window after OUR send timestamp; nothing
  // renews it, so validity lapses even though we are still the ready leader.
  f.rt.advance(kWindow + 1);
  EXPECT_TRUE(f.consensus.is_leader_ready());
  EXPECT_EQ(f.consensus.lease_supporters(), 1);
  EXPECT_FALSE(f.consensus.lease_valid());
}

TEST(LeaseUnit, OrdinaryAcceptedTrafficRenewsTheLease) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.become_ready_with_support(1);
  f.rt.advance(kWindow + 1);
  ASSERT_FALSE(f.consensus.lease_valid());
  // A proposal's ACCEPT carries a fresh timestamp; the follower's ACCEPTED
  // echoes it back and the lease revives — heartbeat-free renewal riding
  // the traffic the protocol sends anyway.
  f.rt.clear_sent();
  f.consensus.propose(Bytes{std::byte{7}});
  const Bytes* acc = f.last_sent(1, msg_type::kAccept);
  ASSERT_NE(acc, nullptr);
  auto msg = AcceptMsg::decode(*acc);
  EXPECT_EQ(msg.ts, f.rt.now());
  AcceptedMsg reply;
  reply.round = msg.round;
  reply.instance = msg.instance;
  reply.echo_ts = msg.ts;
  f.deliver(1, msg_type::kAccepted, reply.encode());
  EXPECT_TRUE(f.consensus.lease_valid());
}

TEST(LeaseUnit, ClockMarginShortensTrustInRemoteSupports) {
  LogConsensusConfig c = leased_config();
  c.lease.clock_margin = 50 * kMillisecond;
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0, c);
  f.become_ready_with_support(1);
  ASSERT_TRUE(f.consensus.lease_valid());
  // The margin eats the tail of the window: a support that nominally has
  // 40ms left is no longer trusted under a 50ms margin.
  f.rt.advance(kWindow - 40 * kMillisecond);
  EXPECT_FALSE(f.consensus.lease_valid());
}

// --- Unit: the follower fence ----------------------------------------------

TEST(LeaseUnit, GrantingFollowerFencesOutRivalProposers) {
  // Acceptor at p2; rounds 3 and 4 are owned by p0 and p1 respectively.
  Fixture f(/*self=*/2, /*n=*/3, /*leader=*/0);
  f.deliver(0, msg_type::kPrepare, PrepareMsg{3, 0, /*ts=*/1000}.encode());
  const Bytes* promise = f.last_sent(0, msg_type::kPromise);
  ASSERT_NE(promise, nullptr);
  EXPECT_EQ(PromiseMsg::decode(*promise).echo_ts, 1000);
  EXPECT_EQ(f.consensus.fence_holder(), 0u);
  EXPECT_EQ(f.consensus.fence_until(), f.rt.now() + kWindow);
  // A rival's higher-round PREPARE inside the window is dropped in
  // silence — no promise, and no NACK either (even a NACK would leak the
  // rival into the holder's highest_seen_round_ epoch check).
  f.rt.advance(kWindow / 2);
  f.deliver(1, msg_type::kPrepare, PrepareMsg{4, 0, /*ts=*/2000}.encode());
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kPromise), 0);
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kNack), 0);
  // Once the fence expires the rival is served normally.
  f.rt.advance(kWindow);
  f.deliver(1, msg_type::kPrepare, PrepareMsg{4, 0, /*ts=*/3000}.encode());
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kPromise), 1);
  EXPECT_EQ(f.consensus.fence_holder(), 1u);
}

TEST(LeaseUnit, FencedProcessRefusesToCampaignEvenForItself) {
  // The fence must bind the fenced process's OWN candidacy: p1 granted p0 a
  // supporting promise (fencing itself to p0), then Omega flips to p1
  // inside the window. If p1 could self-promise now, the one acceptor the
  // quorum-intersection argument hinges on (itself) would defect to a
  // rival, and {p1, p2} could commit while p0's lease still counts p1 as a
  // live support. p1 must sit out the window — no self-promise, no PREPARE
  // broadcast — and campaign only once the fence lapses.
  Fixture f(/*self=*/1, /*n=*/3, /*leader=*/0);
  f.deliver(0, msg_type::kPrepare, PrepareMsg{3, 0, /*ts=*/1000}.encode());
  ASSERT_EQ(f.consensus.fence_holder(), 0u);
  const Round promised = f.consensus.acceptor().promised();
  f.omega.set(1);
  f.tick();
  EXPECT_FALSE(f.consensus.is_leader_ready());
  EXPECT_EQ(f.rt.count_sent(0, msg_type::kPrepare), 0);
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kPrepare), 0);
  // No self-promise happened either: the local acceptor still holds p0's
  // round, so a PROMISE p0 is owed can still be granted.
  EXPECT_EQ(f.consensus.acceptor().promised(), promised);
  // Once the window lapses, the next attempt campaigns, with one PREPARE
  // each: the same tick's retransmit sweep finds it too young to re-send.
  f.rt.advance(kWindow + 1);
  f.tick();
  EXPECT_EQ(f.rt.count_sent(0, msg_type::kPrepare), 1);
  EXPECT_EQ(f.rt.count_sent(2, msg_type::kPrepare), 1);
  EXPECT_GT(f.consensus.acceptor().promised(), promised);
}

TEST(LeaseUnit, EpochFenceRevokesLeaseOnHigherRoundSighting) {
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0);
  f.become_ready_with_support(1);
  ASSERT_TRUE(f.consensus.lease_valid());
  const Round r = f.consensus.current_round();
  // A stale NACK for some other round does not abdicate us (we stay the
  // ready leader) but proves a competitor reached a quorum we thought was
  // fenced — the lease must die on the spot, supports notwithstanding.
  NackMsg nack;
  nack.rejected_round = r + 3;  // not our current round: no abdication
  nack.promised_round = r + 3;
  f.deliver(1, msg_type::kNack, nack.encode());
  EXPECT_TRUE(f.consensus.is_leader_ready());
  EXPECT_GE(f.consensus.lease_supporters(), 2);
  EXPECT_FALSE(f.consensus.lease_valid());
}

TEST(LeaseUnit, LeaseRequiresOmegaTrustAndEnabledConfig) {
  // Disabled lease: the same quorum of echoing supports never validates.
  Fixture off(/*self=*/0, /*n=*/3, /*leader=*/0, LogConsensusConfig{});
  off.become_ready_with_support(1);
  ASSERT_TRUE(off.consensus.is_leader_ready());
  EXPECT_FALSE(off.consensus.lease_valid());
  // Enabled, but Omega withdraws trust: validity dies with it.
  Fixture on(/*self=*/0, /*n=*/3, /*leader=*/0);
  on.become_ready_with_support(1);
  ASSERT_TRUE(on.consensus.lease_valid());
  on.omega.set(1);
  EXPECT_FALSE(on.consensus.lease_valid());
}

// --- Unit: fast-path economy counters ----------------------------------------

TEST(LeaseUnit, RedirectedReadOnlyCommandIsNotCountedAsOrdered) {
  // A non-leader replica that bounces a read-only command with an invalid
  // lease must not tally it as an ordered read: the client retries at the
  // real leader, which counts it there — counting at every redirect hop
  // would double-book the fast-path-economy numbers the benches assert on.
  FixedOmega omega(/*leader=*/1);
  // The runtime is declared first: the core's event-bus subscription is
  // released when the core is destroyed, so the bus must still exist then.
  FakeRuntime rt(/*id=*/0, /*n=*/4);  // process 3 is the client session
  KvCoreOptions opts;
  opts.omega = &omega;
  opts.consensus = leased_config();
  opts.replica.cluster_n = 3;
  KvCore core(opts);
  core.on_start(rt);

  Command cmd;
  cmd.origin = 3;
  cmd.seq = 1;
  cmd.op = KvOp::kGet;
  cmd.key = "k";
  cmd.read_only = true;
  ClientRequestMsg req;
  req.command = cmd.encode();
  core.on_message(rt, 3, msg_type::kClientRequest, req.encode());
  EXPECT_EQ(rt.count_sent(3, msg_type::kClientRedirect), 1);
  EXPECT_EQ(core.reads_ordered(), 0u);
  EXPECT_EQ(core.reads_local(), 0u);
  // The same retried command at a replica Omega calls leader (lease still
  // invalid: not ready) is admitted for ordering and counted exactly once.
  omega.set(0);
  core.on_message(rt, 3, msg_type::kClientRequest, req.encode());
  EXPECT_EQ(core.reads_ordered(), 1u);
  EXPECT_EQ(core.reads_local(), 0u);
}

// --- Unit: crash-recovery fence-all ----------------------------------------

/// FakeRuntime plus stable storage, for the durable-boot path.
class DurableFakeRuntime final : public Runtime {
 public:
  DurableFakeRuntime(ProcessId id, int n) : inner_(id, n) {}
  [[nodiscard]] ProcessId id() const override { return inner_.id(); }
  [[nodiscard]] int n() const override { return inner_.n(); }
  [[nodiscard]] TimePoint now() const override { return inner_.now(); }
  void send(ProcessId dst, MessageType type, BytesView payload) override {
    inner_.send(dst, type, payload);
  }
  TimerId set_timer(Duration delay) override {
    return inner_.set_timer(delay);
  }
  void cancel_timer(TimerId timer) override { inner_.cancel_timer(timer); }
  Rng& rng() override { return inner_.rng(); }
  [[nodiscard]] StableStorage* storage() override { return &storage_; }
  FakeRuntime& fake() { return inner_; }

 private:
  FakeRuntime inner_;
  InMemoryStableStorage storage_;
};

TEST(LeaseUnit, DurableBootFencesAgainstEveryoneForOneWindow) {
  // Fences are volatile: a recovered acceptor may have granted a support it
  // no longer remembers, so a durable boot must refuse support to EVERYONE
  // for one full window (holder = kNoProcess), even on first boot.
  FixedOmega omega(0);
  LogConsensusConfig config = leased_config();
  config.durable = true;
  DurableFakeRuntime rt(/*id=*/2, /*n=*/3);
  LogConsensus consensus(config, &omega);
  consensus.on_start(rt);
  EXPECT_EQ(consensus.fence_holder(), kNoProcess);
  EXPECT_EQ(consensus.fence_until(), rt.now() + kWindow);
  consensus.on_message(rt, 0, msg_type::kPrepare,
                       PrepareMsg{3, 0, /*ts=*/500}.encode());
  EXPECT_EQ(rt.fake().count_sent(0, msg_type::kPromise), 0);
  rt.fake().advance(kWindow + 1);
  consensus.on_message(rt, 0, msg_type::kPrepare,
                       PrepareMsg{3, 0, /*ts=*/600}.encode());
  EXPECT_EQ(rt.fake().count_sent(0, msg_type::kPromise), 1);
}

// --- Unit: the sabotage knob is exactly as unsound as advertised ------------

TEST(LeaseUnit, SabotageTreatsBareSelfBeliefAsALease) {
  LogConsensusConfig config = leased_config();
  config.lease.unsafe_skip_fence = true;
  Fixture f(/*self=*/0, /*n=*/3, /*leader=*/0, config);
  f.tick();
  const Round r = f.consensus.current_round();
  f.deliver(1, msg_type::kPromise, PromiseMsg{r, {}}.encode());  // no echo
  ASSERT_TRUE(f.consensus.is_leader_ready());
  // No quorum support, and the window long gone — still "valid". This is
  // the hole the sabotage campaign drives a stale read through.
  f.rt.advance(10 * kWindow);
  EXPECT_LT(f.consensus.lease_supporters(), 2);
  EXPECT_TRUE(f.consensus.lease_valid());
  // And its acceptor fences nobody.
  f.deliver(1, msg_type::kPrepare, PrepareMsg{r + 1, 0, /*ts=*/1}.encode());
  EXPECT_EQ(f.rt.count_sent(1, msg_type::kPromise), 1);
}

// --- Simulation: no two holders ---------------------------------------------

TEST(LeaseSim, AtMostOneHolderEvenAcrossHolderCrash) {
  // Two ♦-sources so leadership re-stabilizes after we assassinate the
  // holder (the stable leader converges to a source; killing it would
  // otherwise void the liveness premise).
  SystemSParams params;
  params.sources = {3, 4};
  params.gst = 500 * kMillisecond;
  Simulator sim(SimConfig{5, 7, 10 * kMillisecond}, make_system_s(params));
  LogConsensusConfig lc = leased_config();
  CeOmegaConfig oc;
  oc.lease_duration = kWindow;
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < 5; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = oc,
                                     .consensus = lc,
                                     .sharded = ShardedReplicaConfig{}}));
  }
  // Supports renew off ordinary ACCEPT/ACCEPTED traffic (there are no lease
  // heartbeats by design), so an idle cluster holds no lease: keep a steady
  // write trickle flowing.
  int next_value = 0;
  sim.schedule_every(500 * kMillisecond, 50 * kMillisecond, [&]() {
    for (ProcessId p = 0; p < 5; ++p) {
      if (sim.alive(p)) {
        replicas[p]->submit(KvOp::kPut, "k", std::to_string(next_value++));
        break;
      }
    }
    return true;
  });
  int max_holders = 0;
  ProcessId first_holder = kNoProcess;
  ProcessId last_holder = kNoProcess;
  bool crashed = false;
  sim.schedule_every(1 * kSecond, 5 * kMillisecond, [&]() {
    int holders = 0;
    ProcessId who = kNoProcess;
    for (ProcessId p = 0; p < 5; ++p) {
      if (sim.alive(p) && replicas[p]->group(0).consensus().lease_valid()) {
        ++holders;
        who = p;
      }
    }
    max_holders = std::max(max_holders, holders);
    if (holders == 1) {
      if (!crashed) {
        first_holder = who;
        if (sim.now() >= 5 * kSecond) {
          // Kill the current holder at a moment its lease is VALID — the
          // adversarial instant: the successor may only validate after the
          // followers' fences run out.
          sim.crash_now(who);
          crashed = true;
        }
      } else {
        last_holder = who;
      }
    }
    return true;
  });
  sim.start();
  sim.run_until(30 * kSecond);
  EXPECT_LE(max_holders, 1);
  ASSERT_TRUE(crashed);
  // A successor took over (liveness) and it is a different process.
  EXPECT_NE(last_holder, kNoProcess);
  EXPECT_NE(last_holder, first_holder);
}

TEST(LeaseSim, AsymmetricPartitionNeverYieldsTwoHolders) {
  // Regression for the campaign-fence bypass. Schedule (n=3, A=0 leader):
  // A<->C dies at 2s, so C's fence on A lapses a window later while A keeps
  // its lease on {A, B}; A<->B dies at 4s, and B's omega suspects A tens of
  // milliseconds later — far inside B's fence window of A, which the write
  // trickle renewed until ~4s + W. A B that self-promises there assembles
  // {B, C} and holds a lease while A still counts B's echo as live support:
  // two holders. The campaign fence must make B sit out its own window.
  Simulator sim(SimConfig{3, 11, 10 * kMillisecond},
                make_all_timely({500 * kMicrosecond, 2 * kMillisecond}));
  LogConsensusConfig lc = leased_config();
  CeOmegaConfig oc;
  oc.lease_duration = kWindow;
  // C's omega never suspects anyone inside the horizon: keeps C loyal to A
  // (as a slow-to-suspect process would be) so only B campaigns — C's role
  // is the unfenced acceptor a bypassing B would recruit.
  CeOmegaConfig loyal_oc = oc;
  loyal_oc.initial_timeout = 60 * kSecond;
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < 3; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = p == 2 ? loyal_oc : oc,
                                     .consensus = lc,
                                     .sharded = ShardedReplicaConfig{}}));
  }
  // Keep ACCEPT/ACCEPTED traffic flowing so fences and supports renew right
  // up to the partition instant (leases have no heartbeats of their own).
  int next_value = 0;
  sim.schedule_every(100 * kMillisecond, 20 * kMillisecond, [&]() {
    replicas[0]->submit(KvOp::kPut, "k", std::to_string(next_value++));
    return true;
  });
  sim.schedule(2 * kSecond, [&]() {
    sim.network().set_link(0, 2, std::make_unique<DeadLink>());
    sim.network().set_link(2, 0, std::make_unique<DeadLink>());
  });
  sim.schedule(4 * kSecond, [&]() {
    sim.network().set_link(0, 1, std::make_unique<DeadLink>());
    sim.network().set_link(1, 0, std::make_unique<DeadLink>());
  });
  int max_holders = 0;
  bool b_took_over = false;
  sim.schedule_every(1 * kSecond, 2 * kMillisecond, [&]() {
    int holders = 0;
    for (ProcessId p = 0; p < 3; ++p) {
      if (replicas[p]->group(0).consensus().lease_valid()) ++holders;
    }
    max_holders = std::max(max_holders, holders);
    if (replicas[1]->group(0).consensus().lease_valid()) b_took_over = true;
    return true;
  });
  sim.start();
  sim.run_until(8 * kSecond);
  EXPECT_LE(max_holders, 1);
  // Liveness: the fence delays B's takeover by one window, not forever.
  EXPECT_TRUE(b_took_over);
}

TEST(LeaseSim, FifoSessionReadNeverOvertakesOwnQueuedWrite) {
  // lease_reads composed with fifo_client_order: the local fast path must
  // not jump the session queue. A read submitted right after a write from
  // the same session has to observe that write (per-client program order),
  // so it falls back to the ordered path; with nothing queued, the fast
  // path still fires.
  Simulator sim(SimConfig{3, 5, 10 * kMillisecond},
                make_all_timely({500 * kMicrosecond, 2 * kMillisecond}));
  LogConsensusConfig lc = leased_config();
  CeOmegaConfig oc;
  oc.lease_duration = kWindow;
  KvReplicaConfig rc;
  rc.fifo_client_order = true;
  rc.lease_reads = true;
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < 3; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = oc,
                                     .consensus = lc,
                                     .sharded = {.shards = 1, .replica = rc}}));
  }
  // Background writes from another replica keep the lease supports renewed.
  int next_value = 0;
  sim.schedule_every(100 * kMillisecond, 20 * kMillisecond, [&]() {
    replicas[1]->submit(KvOp::kPut, "heartbeat", std::to_string(next_value++));
    return true;
  });
  std::string fast_read = "(unset)";
  std::string ordered_read = "(unset)";
  std::uint64_t locals_before = 0;
  std::uint64_t locals_after = 0;
  sim.schedule(3 * kSecond, [&]() {
    replicas[0]->submit(KvOp::kPut, "fence", "old");
  });
  sim.schedule(4 * kSecond, [&]() {
    ASSERT_TRUE(replicas[0]->group(0).consensus().lease_valid());
    // Idle session: the fast path answers synchronously from local state.
    locals_before = replicas[0]->reads_local();
    replicas[0]->submit(KvOp::kGet, "fence", "", "",
                        [&](const KvResult& r) { fast_read = r.value; });
    locals_after = replicas[0]->reads_local();
    // Same session, write still queued: the read must wait its turn.
    replicas[0]->submit(KvOp::kPut, "fence", "new");
    replicas[0]->submit(KvOp::kGet, "fence", "", "",
                        [&](const KvResult& r) { ordered_read = r.value; });
    EXPECT_EQ(fast_read, "old");           // answered synchronously
    EXPECT_EQ(ordered_read, "(unset)");    // still queued behind the write
  });
  sim.start();
  sim.run_until(10 * kSecond);
  EXPECT_EQ(locals_after, locals_before + 1);
  EXPECT_EQ(fast_read, "old");
  EXPECT_EQ(ordered_read, "new");
  EXPECT_GE(replicas[0]->reads_ordered(), 1u);
}

// --- Campaign: randomized adversary + the sabotage self-test ----------------

CampaignConfig lease_campaign() {
  CampaignConfig config;
  config.scenario = Scenario::kKvLinearizable;
  config.n = 5;
  config.first_seed = 1;
  config.seeds = 2;
  config.horizon = 40 * kSecond;
  config.quiesce = 12 * kSecond;
  config.crash_stop_budget = 1;  // spent by the leaseholder assassin
  config.kv_ops = 120;
  config.kv_keys = 4;
  config.lease_reads = true;
  return config;
}

TEST(LeaseCampaign, AssassinSweepHasNoViolations) {
  CampaignResult result = run_campaign(lease_campaign());
  EXPECT_EQ(result.runs, 2);
  EXPECT_TRUE(result.ok())
      << (result.violations.empty() ? "budget exceeded"
                                    : result.violations[0].what);
}

TEST(LeaseCampaign, SabotagedFenceServesExactlyOneStaleRead) {
  // The scripted execution: elect, write, partition the leaseholder away,
  // write through the successor, read at the deposed holder. With the
  // fence disabled the deposed holder serves the old value locally; the
  // checker must reject that history — and nothing else.
  CampaignConfig config = lease_campaign();
  config.lease_reads = false;
  config.lease_sabotage = true;
  CaseResult result = run_campaign_case(config, 1);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_NE(result.violations[0].find("not linearizable"), std::string::npos)
      << result.violations[0];
  EXPECT_FALSE(result.lin_budget_exceeded);
}

TEST(LeaseCampaign, ReplayCommandCarriesLeaseFlags) {
  EXPECT_NE(replay_command(lease_campaign(), 3).find("--lease-reads"),
            std::string::npos);
  CampaignConfig sabotage = lease_campaign();
  sabotage.lease_reads = false;
  sabotage.lease_sabotage = true;
  EXPECT_NE(replay_command(sabotage, 3).find("--lease-sabotage"),
            std::string::npos);
}

}  // namespace
}  // namespace lls
