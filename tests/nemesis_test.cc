// Nemesis (randomized fault schedule) tests: after all disturbances heal,
// the paper's eventual properties must hold — stabilization, efficiency,
// consensus liveness and safety. Any failure here is a real protocol bug.
#include <gtest/gtest.h>

#include "consensus/experiment.h"
#include "net/topology.h"
#include "omega/experiment.h"
#include "shard/sharded_replica.h"
#include "sim/nemesis.h"

namespace lls {
namespace {

LinkFactory base_links() {
  SystemSParams params;
  params.sources = {3};
  params.gst = 500 * kMillisecond;
  return make_system_s(params);
}

class NemesisOmegaSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NemesisOmegaSweep, StabilizesAfterQuiesce) {
  SimConfig config;
  config.n = 5;
  config.seed = GetParam();
  LinkFactory base = base_links();
  Simulator sim(config, base);
  std::vector<CeOmega*> omegas;
  for (ProcessId p = 0; p < 5; ++p) {
    omegas.push_back(&sim.emplace_actor<CeOmega>(p, CeOmegaConfig{}));
  }
  NemesisConfig nc;
  nc.seed = GetParam() * 31 + 7;
  nc.start = 1 * kSecond;
  nc.quiesce = 20 * kSecond;
  Nemesis nemesis(sim, base, nc);
  ASSERT_GT(nemesis.events_planned(), 0);

  sim.start();
  sim.run_until(120 * kSecond);

  // All premises restored at 20s: by the horizon everyone agrees on one
  // alive process, and only it sends in the trailing window.
  ProcessId agreed = omegas[0]->leader();
  for (auto* o : omegas) EXPECT_EQ(o->leader(), agreed);
  EXPECT_TRUE(sim.alive(agreed));
  auto senders =
      sim.network().stats().senders_between(115 * kSecond, 120 * kSecond);
  EXPECT_EQ(senders.size(), 1u);
  EXPECT_EQ(*senders.begin(), agreed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NemesisOmegaSweep,
                         ::testing::Range<std::uint64_t>(600, 612));

class NemesisConsensusSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NemesisConsensusSweep, AllValuesDecideDespiteDisturbances) {
  SimConfig config;
  config.n = 5;
  config.seed = GetParam();
  LinkFactory base = base_links();
  Simulator sim(config, base);
  std::vector<CeNode*> nodes;
  for (ProcessId p = 0; p < 5; ++p) {
    nodes.push_back(
        &sim.emplace_actor<CeNode>(p, CeOmegaConfig{}, LogConsensusConfig{}));
  }
  NemesisConfig nc;
  nc.seed = GetParam() * 17 + 3;
  nc.start = 1 * kSecond;
  nc.quiesce = 15 * kSecond;
  Nemesis nemesis(sim, base, nc);

  // Proposals land *during* the disturbance window — the hard case.
  constexpr int kValues = 20;
  for (int k = 0; k < kValues; ++k) {
    sim.schedule(1 * kSecond + k * 500 * kMillisecond, [&, k]() {
      nodes[static_cast<std::size_t>(k % 5)]->consensus().propose(
          make_value(static_cast<std::uint64_t>(k + 1)));
    });
  }
  sim.start();
  sim.run_until(120 * kSecond);

  // Liveness: every process learned every value; agreement: identical logs.
  for (auto* node : nodes) {
    EXPECT_GE(node->consensus().first_unknown(), 20u);
  }
  Instance max_len = 0;
  for (auto* node : nodes) {
    max_len = std::max(max_len, node->consensus().first_unknown());
  }
  for (Instance i = 0; i < max_len; ++i) {
    std::optional<Bytes> expected;
    for (auto* node : nodes) {
      auto v = node->consensus().decision(i);
      ASSERT_TRUE(v.has_value()) << "instance " << i;
      if (!expected) expected = v;
      EXPECT_EQ(*v, *expected) << "instance " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NemesisConsensusSweep,
                         ::testing::Range<std::uint64_t>(700, 708));

TEST(NemesisKv, ReplicatedStoreConvergesThroughChaos) {
  SimConfig config;
  config.n = 5;
  config.seed = 42;
  LinkFactory base = base_links();
  Simulator sim(config, base);
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < 5; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = CeOmegaConfig{},
                                     .consensus = LogConsensusConfig{},
                                     .sharded = ShardedReplicaConfig{}}));
  }
  NemesisConfig nc;
  nc.seed = 99;
  nc.quiesce = 15 * kSecond;
  Nemesis nemesis(sim, base, nc);

  for (int i = 0; i < 50; ++i) {
    sim.schedule(1 * kSecond + i * 250 * kMillisecond, [&, i]() {
      replicas[static_cast<std::size_t>(i % 5)]->submit(KvOp::kAppend, "t", ".");
    });
  }
  sim.start();
  sim.run_until(120 * kSecond);
  for (auto* r : replicas) {
    EXPECT_EQ(r->group(0).store().applied(), 50u);
    EXPECT_EQ(r->group(0).store().digest(),
              replicas[0]->group(0).store().digest());
  }
}

}  // namespace
}  // namespace lls
