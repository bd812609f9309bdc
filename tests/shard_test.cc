// Sharded multi-group consensus tests: the ShardMap partition contract, the
// group-envelope wire mux (group 0 bare, groups >= 1 enveloped), malformed-
// envelope rejection at the container boundary, durable consensus at M = 1,
// client-burst exactly-once across groups, and an end-to-end sharded kv
// campaign (M = 4, full Nemesis schedule, leader kill allowed).
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "client/cluster_client.h"
#include "common/actor.h"
#include "consensus/paxos.h"
#include "net/net_stats.h"
#include "net/topology.h"
#include "obs/event.h"
#include "rsm/command.h"
#include "shard/shard_map.h"
#include "shard/sharded_replica.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "testing_util.h"

namespace lls {
namespace {

// --- ShardMap ---------------------------------------------------------------

TEST(ShardMap, DeterministicInRangeAndCoversAllShards) {
  const ShardMap map(4);
  EXPECT_EQ(map.shards(), 4);
  EXPECT_EQ(map.version(), 1u);

  std::set<ShardId> hit;
  for (int i = 0; i < 256; ++i) {
    const std::string key = "key" + std::to_string(i);
    const ShardId shard = map.shard_of(key);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(shard, map.shard_of(key));  // same key, same owner, always
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 4u);  // a uniform-ish key set reaches every group

  // A second map with the same M is the same partition: the map is pure
  // function of (key, M), never of instance identity.
  const ShardMap twin(4);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(map.shard_of(key), twin.shard_of(key));
  }

  EXPECT_EQ(ShardMap(0).shards(), 1);   // degenerate configs clamp to one
  EXPECT_EQ(ShardMap(-3).shards(), 1);
  EXPECT_EQ(ShardMap(1).shard_of("anything"), 0);
}

TEST(ShardMap, PartitionIsPinnedAcrossBuilds) {
  // The hash is the wire contract between clients and replicas, so it must
  // be FNV-1a exactly — not std::hash, not platform-dependent. These values
  // are precomputed; a mismatch means the partition silently moved and
  // mixed-build clusters would route the same key to different groups.
  const ShardMap m4(4);
  EXPECT_EQ(m4.shard_of("alpha"), 3);
  EXPECT_EQ(m4.shard_of("bravo"), 3);
  EXPECT_EQ(m4.shard_of("k0"), 2);
  EXPECT_EQ(m4.shard_of("k1"), 1);
  EXPECT_EQ(m4.shard_of(""), 1);
  const ShardMap m8(8);
  EXPECT_EQ(m8.shard_of("k0"), 6);
  EXPECT_EQ(m8.shard_of("k63"), 5);
}

// --- GroupEnvelopeMsg wire format -------------------------------------------

TEST(GroupEnvelope, RoundTripsAndStaysInConsensusClass) {
  GroupEnvelopeMsg env;
  env.shard = 3;
  env.inner_type = msg_type::kConsensusBase + 7;
  env.payload = Bytes{std::byte{0xde}, std::byte{0xad}, std::byte{0xbe}};

  // The decoded payload borrows into the encoded buffer: keep it alive.
  const Bytes encoded = env.encode();
  const GroupEnvelopeMsg back = GroupEnvelopeMsg::decode(encoded);
  EXPECT_EQ(back.shard, env.shard);
  EXPECT_EQ(back.inner_type, env.inner_type);
  EXPECT_EQ(back.payload, env.payload);

  const Bytes empty_bytes = GroupEnvelopeMsg{.shard = 0,
                                             .inner_type = 0x0200,
                                             .payload = {}}
                                .encode();
  const GroupEnvelopeMsg empty = GroupEnvelopeMsg::decode(empty_bytes);
  EXPECT_TRUE(empty.payload.empty());

  // Per-class accounting must keep seeing enveloped group traffic as
  // consensus traffic — the mux changes framing, not bookkeeping.
  EXPECT_EQ(NetStats::type_class(msg_type::kGroupEnvelope),
            NetStats::type_class(msg_type::kConsensusBase));
}

// --- malformed-envelope rejection at the container --------------------------

/// Fires exactly three hostile envelopes at replica 0: an out-of-range
/// shard, an inner type escaping the consensus block, and a truncated
/// header. None may reach an engine; all must be counted.
class EnvelopeInjector final : public Actor {
 public:
  void on_start(Runtime& rt) override { rt.set_timer(1 * kSecond); }
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime& rt, TimerId) override {
    GroupEnvelopeMsg bad_shard;
    bad_shard.shard = 99;
    bad_shard.inner_type = msg_type::kConsensusBase + 1;
    bad_shard.payload = Bytes{std::byte{0}};
    rt.send(0, msg_type::kGroupEnvelope, bad_shard.encode());

    GroupEnvelopeMsg bad_type;
    bad_type.shard = 0;
    bad_type.inner_type = 0x0042;  // outside [0x0200, 0x02ff]
    bad_type.payload = Bytes{std::byte{0}};
    rt.send(0, msg_type::kGroupEnvelope, bad_type.encode());

    rt.send(0, msg_type::kGroupEnvelope,
            Bytes{std::byte{0x01}});  // truncated: no full header
  }
};

TEST(ShardedReplica, RejectsMalformedEnvelopes) {
  SimConfig sc;
  sc.n = 6;  // 5 replicas + the injector
  sc.seed = 11;
  Simulator sim(sc, make_all_timely({500, 2 * kMillisecond}));

  ShardedReplicaConfig src;
  src.shards = 4;
  src.replica.cluster_n = 5;
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < 5; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = CeOmegaConfig{},
                                     .consensus = LogConsensusConfig{},
                                     .sharded = src}));
  }
  sim.emplace_actor<EnvelopeInjector>(5);
  sim.start();
  sim.run_for(5 * kSecond);

  // All three hostile envelopes were dropped and counted; the legitimate
  // inter-group traffic of the healthy cluster was not (the counter is
  // exact, not a rate), and the cluster still elected a leader.
  EXPECT_EQ(replicas[0]->envelopes_rejected(), 3u);
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_EQ(replicas[p]->envelopes_rejected(), 0u) << "replica " << p;
  }
  const ProcessId leader = replicas[0]->omega().leader();
  ASSERT_NE(leader, kNoProcess);
  for (auto* r : replicas) EXPECT_EQ(r->omega().leader(), leader);
}

// --- group 0 on the bare wire -----------------------------------------------

/// Wraps a replica and records what it puts on the wire: bare ACCEPTs, and
/// the shard of every enveloped ACCEPT.
class AcceptSpy final : public Actor {
 public:
  explicit AcceptSpy(std::unique_ptr<Actor> inner) : inner_(std::move(inner)) {}

  void on_start(Runtime& rt) override {
    view_ = std::make_unique<View>(*this, rt);
    inner_->on_start(*view_);
  }
  void on_message(Runtime&, ProcessId src, MessageType type,
                  BytesView payload) override {
    inner_->on_message(*view_, src, type, payload);
  }
  void on_timer(Runtime&, TimerId timer) override {
    inner_->on_timer(*view_, timer);
  }

  std::uint64_t bare_accepts = 0;
  std::map<ShardId, std::uint64_t> enveloped_accepts;

 private:
  class View final : public Runtime {
   public:
    View(AcceptSpy& spy, Runtime& base) : spy_(spy), base_(base) {}
    [[nodiscard]] ProcessId id() const override { return base_.id(); }
    [[nodiscard]] int n() const override { return base_.n(); }
    [[nodiscard]] TimePoint now() const override { return base_.now(); }
    void send(ProcessId dst, MessageType type, BytesView payload) override {
      if (type == msg_type::kAccept) ++spy_.bare_accepts;
      if (type == msg_type::kGroupEnvelope) {
        const GroupEnvelopeMsg env = GroupEnvelopeMsg::decode(payload);
        if (env.inner_type == msg_type::kAccept) {
          ++spy_.enveloped_accepts[env.shard];
        }
      }
      base_.send(dst, type, payload);
    }
    TimerId set_timer(Duration delay) override {
      return base_.set_timer(delay);
    }
    void cancel_timer(TimerId timer) override { base_.cancel_timer(timer); }
    Rng& rng() override { return base_.rng(); }
    [[nodiscard]] StableStorage* storage() override { return base_.storage(); }
    [[nodiscard]] obs::Plane& obs() override { return base_.obs(); }
    [[nodiscard]] BufferPool& pool() override { return base_.pool(); }

   private:
    AcceptSpy& spy_;
    Runtime& base_;
  };

  std::unique_ptr<Actor> inner_;
  std::unique_ptr<View> view_;
};

/// Five M-group replicas (each behind an AcceptSpy) plus one client that
/// submits `n_commands` appends over distinct keys at 2 s.
struct LoadedCluster {
  Simulator sim;
  std::vector<AcceptSpy*> spies;
  ClusterClient* client = nullptr;
  const std::uint64_t commands;

  LoadedCluster(int shards, int n_commands)
      : sim(SimConfig{6, 23, 10 * kMillisecond},
            make_all_timely({500, 2 * kMillisecond})),
        commands(static_cast<std::uint64_t>(n_commands)) {
    ShardedReplicaConfig src;
    src.shards = shards;
    src.replica.cluster_n = 5;
    for (ProcessId p = 0; p < 5; ++p) {
      spies.push_back(&sim.emplace_actor<AcceptSpy>(
          p, std::make_unique<ShardedKvReplica>(ShardedKvReplica::Options{
                 .omega = CeOmegaConfig{},
                 .consensus = LogConsensusConfig{},
                 .sharded = src})));
    }
    ClusterClientConfig cc;
    cc.cluster_n = 5;
    cc.shards = shards;
    cc.window = static_cast<std::size_t>(n_commands);
    client = &sim.emplace_actor<ClusterClient>(5, cc);
    sim.schedule(2 * kSecond, [this, n_commands]() {
      for (int i = 0; i < n_commands; ++i) {
        client->submit(KvOp::kAppend, "k" + std::to_string(i), ".");
      }
    });
  }

  /// Runs until every command is acked (or 30 s); true when all were.
  bool run() {
    sim.start();
    while (sim.now() < 30 * kSecond && client->acked() < commands) {
      sim.run_for(10 * kMillisecond);
    }
    return client->acked() == commands;
  }
};

TEST(ShardedReplica, SingleGroupSendsNoEnvelopes) {
  // M = 1 is the unsharded replica: its consensus traffic is byte-for-byte
  // the bare 0x02xx protocol, with no envelope on any frame.
  LoadedCluster c(/*shards=*/1, /*n_commands=*/32);
  std::map<MessageType, std::uint64_t> sent_by_type;
  obs::Subscription sub = c.sim.plane().bus().subscribe(
      obs::mask_of(obs::EventType::kSend),
      [&](const obs::Event& e) { ++sent_by_type[e.mtype]; });
  ASSERT_TRUE(c.run());
  EXPECT_EQ(sent_by_type[msg_type::kGroupEnvelope], 0u);
  EXPECT_GT(sent_by_type[msg_type::kAccept], 0u);
  std::uint64_t bare_accepts = 0;
  for (const AcceptSpy* spy : c.spies) {
    bare_accepts += spy->bare_accepts;
    EXPECT_TRUE(spy->enveloped_accepts.empty());
  }
  EXPECT_EQ(bare_accepts, sent_by_type[msg_type::kAccept]);
}

TEST(ShardedReplica, GroupZeroTravelsBareOthersEnveloped) {
  constexpr int kShards = 4;
  LoadedCluster c(kShards, /*n_commands=*/64);
  ASSERT_TRUE(c.run());
  std::uint64_t bare = 0;
  std::array<std::uint64_t, kShards> enveloped{};
  for (const AcceptSpy* spy : c.spies) {
    bare += spy->bare_accepts;
    for (const auto& [shard, count] : spy->enveloped_accepts) {
      ASSERT_LT(shard, kShards);
      enveloped[shard] += count;
    }
  }
  EXPECT_GT(bare, 0u);          // group 0's ACCEPTs leave bare...
  EXPECT_EQ(enveloped[0], 0u);  // ...and never in an envelope
  for (int g = 1; g < kShards; ++g) {
    EXPECT_GT(enveloped[static_cast<std::size_t>(g)], 0u) << "shard " << g;
  }
}

TEST(ShardedReplica, BareConsensusMessageReachesGroupZero) {
  testing::FakeRuntime rt(/*id=*/0, /*n=*/3);
  ShardedKvReplica replica(ShardedKvReplica::Options{
      .omega = CeOmegaConfig{},
      .consensus = LogConsensusConfig{},
      .sharded = {.shards = 2, .replica = KvReplicaConfig{}}});
  replica.on_start(rt);
  rt.clear_sent();

  Command cmd;
  cmd.origin = 1;
  cmd.seq = 1;
  cmd.op = KvOp::kPut;
  cmd.key = "k";
  cmd.value = "v";
  CommandBatch batch;
  batch.commands.push_back(cmd);
  const Bytes value = batch.encode();
  replica.on_message(rt, /*src=*/1, msg_type::kDecide,
                     DecideMsg{0, WireBlob::ref(value)}.encode());

  EXPECT_TRUE(replica.group(0).consensus().decision(0).has_value());
  EXPECT_FALSE(replica.group(1).consensus().decision(0).has_value());
  EXPECT_EQ(replica.group(0).applied_count(), 1u);
  // Group 0 answers bare too.
  EXPECT_EQ(rt.count_sent(1, msg_type::kDecideAck), 1);
  EXPECT_EQ(rt.count_sent(1, msg_type::kGroupEnvelope), 0);
  EXPECT_EQ(replica.envelopes_rejected(), 0u);
}

TEST(ShardedReplica, DurableConsensusOnlyAtOneGroup) {
  LogConsensusConfig durable;
  durable.durable = true;
  auto make = [&](int shards) {
    return CrKvReplica(CrKvReplica::Options{
        .omega = CrOmegaConfig{},
        .consensus = durable,
        .sharded = {.shards = shards, .replica = KvReplicaConfig{}}});
  };
  EXPECT_NO_THROW(make(1));
  EXPECT_THROW(make(2), std::logic_error);
}

// --- client burst across shards: exactly-once, coalesced --------------------

TEST(ShardedReplica, CoalescedClientBurstAppliesExactlyOnceOnEveryGroup) {
  constexpr int kShards = 4;
  constexpr int kCommands = 64;
  SimConfig sc;
  sc.n = 6;  // 5 replicas + 1 client
  sc.seed = 23;
  Simulator sim(sc, make_all_timely({500, 2 * kMillisecond}));

  ShardedReplicaConfig src;
  src.shards = kShards;
  src.replica.cluster_n = 5;
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < 5; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = CeOmegaConfig{},
                                     .consensus = LogConsensusConfig{},
                                     .sharded = src}));
  }
  ClusterClientConfig cc;
  cc.cluster_n = 5;
  cc.shards = kShards;
  cc.window = kCommands;
  ClusterClient& client = sim.emplace_actor<ClusterClient>(5, cc);

  // One burst, keys spread over all four groups, submitted in a single
  // execution turn so the coalescer gets a real shot at packing.
  sim.schedule(2 * kSecond, [&]() {
    for (int i = 0; i < kCommands; ++i) {
      client.submit(KvOp::kAppend, "k" + std::to_string(i), ".");
    }
  });
  sim.start();
  while (sim.now() < 30 * kSecond &&
         client.acked() < static_cast<std::uint64_t>(kCommands)) {
    sim.run_for(10 * kMillisecond);
  }
  sim.run_for(200 * kMillisecond);  // let trailing decide fan-out settle

  ASSERT_EQ(client.acked(), static_cast<std::uint64_t>(kCommands));
  EXPECT_GE(client.batches_sent(), 1u);  // coalescing actually engaged

  // Every replica applied the burst exactly once — retries and resends are
  // absorbed by session dedup, never double-applied — and the per-group
  // stores agree byte-for-byte across the cluster.
  const ShardMap map(kShards);
  std::vector<std::uint64_t> expected(kShards, 0);
  for (int i = 0; i < kCommands; ++i) {
    ++expected[map.shard_of("k" + std::to_string(i))];
  }
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_EQ(replicas[p]->applied_count(),
              static_cast<std::uint64_t>(kCommands))
        << "replica " << p;
    for (int g = 0; g < kShards; ++g) {
      EXPECT_GT(expected[g], 0u) << "test keys must cover every group";
      EXPECT_EQ(replicas[p]->group(g).applied_count(), expected[g])
          << "replica " << p << " shard " << g;
      EXPECT_EQ(replicas[p]->group(g).store().digest(),
                replicas[0]->group(g).store().digest())
          << "replica " << p << " shard " << g;
    }
    EXPECT_EQ(replicas[p]->envelopes_rejected(), 0u);
  }
}

// --- end-to-end: sharded kv campaign under Nemesis with a leader kill -------

TEST(ShardedCampaign, KvLinearizableM4SurvivesChaosAndLeaderKill) {
  CampaignConfig config;
  config.scenario = Scenario::kKvLinearizable;
  config.n = 5;
  config.shards = 4;
  config.first_seed = 1;
  config.seeds = 2;
  config.horizon = 40 * kSecond;
  config.quiesce = 12 * kSecond;
  config.check_window = 5 * kSecond;
  config.crash_stop_budget = 1;  // Nemesis may kill the leader mid-run
  config.kv_ops = 160;
  config.kv_keys = 8;

  CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.runs, 2);
  EXPECT_TRUE(result.ok())
      << (result.violations.empty() ? "budget exceeded"
                                    : result.violations[0].what);

  // Sharded runs replay with their shard count pinned, and the same
  // (config, seed) is bit-identical on a re-run.
  EXPECT_NE(replay_command(config, 1).find("--shards=4"), std::string::npos);
  CaseResult a = run_campaign_case(config, 1);
  CaseResult b = run_campaign_case(config, 1);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.violations.empty());
}

}  // namespace
}  // namespace lls
