// Behavioural tests of the consensus stack on friendly networks: decisions,
// ordering, quiescence, baseline comparison.
#include <gtest/gtest.h>

#include "consensus/experiment.h"
#include "net/net_stats.h"
#include "net/topology.h"

namespace lls {
namespace {

ConsensusExperiment timely_experiment(int n, int values,
                                      std::uint64_t seed = 1) {
  ConsensusExperiment exp;
  exp.n = n;
  exp.seed = seed;
  exp.links = make_all_timely({500, 2 * kMillisecond});
  exp.num_values = values;
  exp.horizon = 30 * kSecond;
  return exp;
}

TEST(ConsensusBasic, DecidesAllValuesOnTimelyNetwork) {
  auto r = run_consensus_experiment(timely_experiment(5, 20));
  EXPECT_TRUE(r.agreement_ok);
  EXPECT_TRUE(r.validity_ok);
  EXPECT_TRUE(r.all_decided) << r.values_decided_everywhere << "/"
                             << r.values_proposed;
}

TEST(ConsensusBasic, SingleValue) {
  auto r = run_consensus_experiment(timely_experiment(3, 1));
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.agreement_ok);
}

TEST(ConsensusBasic, LatencyIsAFewDeltasAfterStabilization) {
  auto exp = timely_experiment(5, 20);
  exp.first_propose = 2 * kSecond;  // well after election settles
  auto r = run_consensus_experiment(exp);
  ASSERT_TRUE(r.all_decided);
  // delta <= 2ms, tick 20ms: a decision should land well under ~100ms.
  EXPECT_LT(r.latency_first.percentile(95), 100.0 * kMillisecond);
}

TEST(ConsensusBasic, QuiescesToOmegaHeartbeatsOnly) {
  auto r = run_consensus_experiment(timely_experiment(5, 10));
  ASSERT_TRUE(r.all_decided);
  // After the workload completes, only the leader's Omega heartbeats flow.
  EXPECT_EQ(r.trailing_senders.size(), 1u);
}

TEST(ConsensusBasic, NonLeaderSubmissionsAreForwarded) {
  auto exp = timely_experiment(5, 10);
  exp.proposer = 4;  // never the initial leader (process 0)
  auto r = run_consensus_experiment(exp);
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.agreement_ok);
}

TEST(ConsensusBasic, RoundRobinSubmission) {
  auto exp = timely_experiment(5, 25);
  exp.proposer = kNoProcess;
  auto r = run_consensus_experiment(exp);
  EXPECT_TRUE(r.all_decided);
}

TEST(ConsensusBasic, RotatingBaselineDecides) {
  auto exp = timely_experiment(5, 10);
  exp.algo = ConsensusAlgo::kRotating;
  auto r = run_consensus_experiment(exp);
  EXPECT_TRUE(r.agreement_ok);
  EXPECT_TRUE(r.validity_ok);
  EXPECT_TRUE(r.all_decided) << r.values_decided_everywhere << "/"
                             << r.values_proposed;
}

TEST(ConsensusBasic, CeUsesFarFewerMessagesThanRotating) {
  auto ce = timely_experiment(7, 30, /*seed=*/5);
  ce.first_propose = 2 * kSecond;
  auto rot = ce;
  rot.algo = ConsensusAlgo::kRotating;
  auto rce = run_consensus_experiment(ce);
  auto rrot = run_consensus_experiment(rot);
  ASSERT_TRUE(rce.all_decided);
  ASSERT_TRUE(rrot.all_decided);
  // Θ(n) vs Θ(n²): at n = 7 the gap must be pronounced.
  EXPECT_LT(rce.msgs_per_decision * 2, rrot.msgs_per_decision)
      << "ce=" << rce.msgs_per_decision << " rot=" << rrot.msgs_per_decision;
}

TEST(ConsensusBasic, TwoProcessSystem) {
  // Majority of 2 is 2: both must be up; still must decide.
  auto r = run_consensus_experiment(timely_experiment(2, 5));
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.agreement_ok);
}

TEST(ConsensusBasic, LargeBatchPipelines) {
  auto exp = timely_experiment(5, 200);
  exp.propose_interval = 2 * kMillisecond;  // faster than the tick
  exp.horizon = 60 * kSecond;
  auto r = run_consensus_experiment(exp);
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.agreement_ok);
}

TEST(ConsensusBasic, SteadyStateCostIsThePhaseTwoFloor) {
  // A stable leader under load pays one ACCEPT and one ACCEPTED per
  // follower per instance: 2(n-1). Links are lossless and every delay is
  // far below the retry period, so no re-send is ever owed; re-sending
  // ACCEPTs whose ACCEPTEDs are still on the wire shows up here as cost
  // above the floor. Only a window inside the load is counted, which
  // leaves out the one-time Phase 1 and the idle-tail flush.
  constexpr int kN = 5;
  constexpr ProcessId kLeader = 0;
  constexpr TimePoint kLoadFrom = 1 * kSecond;
  constexpr TimePoint kLoadTo = 4 * kSecond;
  constexpr TimePoint kWindowFrom = 1500 * kMillisecond;
  constexpr TimePoint kWindowTo = 3500 * kMillisecond;
  Simulator sim(SimConfig{kN, /*seed=*/3, 10 * kMillisecond},
                make_all_timely({500, 2 * kMillisecond}));
  std::vector<CeNode*> nodes;
  for (ProcessId p = 0; p < kN; ++p) {
    nodes.push_back(&sim.emplace_actor<CeNode>(p, CeOmegaConfig{},
                                               LogConsensusConfig{}));
  }
  std::uint64_t decided_in_window = 0;
  obs::Subscription sub = sim.plane().bus().subscribe(
      obs::mask_of(obs::EventType::kDecide), [&](const obs::Event& e) {
        if (e.process == kLeader && sim.now() >= kWindowFrom &&
            sim.now() < kWindowTo) {
          ++decided_in_window;
        }
      });
  // A proposal every 0.5 ms, faster than the quickest round trip, keeps
  // several instances in flight at every tick and the pipeline never idle.
  std::uint64_t next_id = 1;
  sim.schedule_every(kLoadFrom, 500 * kMicrosecond, [&]() {
    nodes[kLeader]->consensus().propose(make_value(next_id++));
    return sim.now() < kLoadTo;
  });
  sim.start();
  sim.run_until(kLoadTo + 1 * kSecond);

  for (ProcessId p = 0; p < kN; ++p) {
    ASSERT_EQ(nodes[p]->omega().leader(), kLeader);
    ASSERT_EQ(nodes[p]->consensus().first_unknown(), next_id - 1);
  }
  ASSERT_GT(decided_in_window, 3000u);
  const NetStats& stats = *NetStats::from(sim.plane().registry());
  const auto msgs = stats.class_msgs_between(
      kWindowFrom, kWindowTo, NetStats::type_class(msg_type::kConsensusBase));
  const double per_decision =
      static_cast<double>(msgs) / static_cast<double>(decided_in_window);
  const double floor = 2.0 * (kN - 1);
  EXPECT_NEAR(per_decision, floor, 0.01 * floor);
}

}  // namespace
}  // namespace lls
