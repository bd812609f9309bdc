// Tests of the linearizability checker itself, then of the full replicated
// stack against it: histories recorded from a live simulated cluster must
// check out linearizable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/topology.h"
#include "rsm/linearizability.h"
#include "shard/sharded_replica.h"
#include "sim/simulator.h"

namespace lls {
namespace {

Command mk(KvOp op, std::string key, std::string value = "",
           std::string expected = "") {
  Command c;
  c.op = op;
  c.key = std::move(key);
  c.value = std::move(value);
  c.expected = std::move(expected);
  return c;
}

KvResult res(bool ok, bool found, std::string value = "") {
  KvResult r;
  r.ok = ok;
  r.found = found;
  r.value = std::move(value);
  return r;
}

HistoryOp op(Command cmd, TimePoint inv, TimePoint rsp, KvResult result) {
  HistoryOp h;
  h.cmd = std::move(cmd);
  h.invoked = inv;
  h.responded = rsp;
  h.result = std::move(result);
  return h;
}

// --- checker unit tests ------------------------------------------------------

TEST(LinCheck, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(LinearizabilityChecker::is_linearizable({}));
}

TEST(LinCheck, SequentialPutGet) {
  std::vector<HistoryOp> h{
      op(mk(KvOp::kPut, "a", "1"), 0, 10, res(true, false, "1")),
      op(mk(KvOp::kGet, "a"), 20, 30, res(true, true, "1")),
  };
  EXPECT_TRUE(LinearizabilityChecker::is_linearizable(h));
}

TEST(LinCheck, StaleReadAfterCompletedWriteRejected) {
  // PUT finished at t=10; a GET invoked at t=20 returned "not found":
  // impossible in any linearization.
  std::vector<HistoryOp> h{
      op(mk(KvOp::kPut, "a", "1"), 0, 10, res(true, false, "1")),
      op(mk(KvOp::kGet, "a"), 20, 30, res(false, false, "")),
  };
  EXPECT_FALSE(LinearizabilityChecker::is_linearizable(h));
}

TEST(LinCheck, ConcurrentWriteReadEitherOrderAccepted) {
  // GET overlaps the PUT: both "sees it" and "misses it" are linearizable.
  std::vector<HistoryOp> saw{
      op(mk(KvOp::kPut, "a", "1"), 0, 100, res(true, false, "1")),
      op(mk(KvOp::kGet, "a"), 50, 60, res(true, true, "1")),
  };
  std::vector<HistoryOp> missed{
      op(mk(KvOp::kPut, "a", "1"), 0, 100, res(true, false, "1")),
      op(mk(KvOp::kGet, "a"), 50, 60, res(false, false, "")),
  };
  EXPECT_TRUE(LinearizabilityChecker::is_linearizable(saw));
  EXPECT_TRUE(LinearizabilityChecker::is_linearizable(missed));
}

TEST(LinCheck, ReadYourWriteViolationRejected) {
  // Same wall-clock client: write 1 then write 2 (sequential), then a read
  // that returns 1 — the intervening write 2 completed before the read.
  std::vector<HistoryOp> h{
      op(mk(KvOp::kPut, "a", "1"), 0, 10, res(true, false, "1")),
      op(mk(KvOp::kPut, "a", "2"), 20, 30, res(true, true, "2")),
      op(mk(KvOp::kGet, "a"), 40, 50, res(true, true, "1")),
  };
  EXPECT_FALSE(LinearizabilityChecker::is_linearizable(h));
}

TEST(LinCheck, CasMustSerialize) {
  // Two concurrent CAS("", ->x) on a fresh key: only one can succeed.
  std::vector<HistoryOp> both_succeed{
      op(mk(KvOp::kCas, "k", "x", ""), 0, 100, res(true, false, "x")),
      op(mk(KvOp::kCas, "k", "y", ""), 0, 100, res(true, false, "y")),
  };
  EXPECT_FALSE(LinearizabilityChecker::is_linearizable(both_succeed));

  std::vector<HistoryOp> one_fails{
      op(mk(KvOp::kCas, "k", "x", ""), 0, 100, res(true, false, "x")),
      op(mk(KvOp::kCas, "k", "y", ""), 0, 100, res(false, true, "x")),
  };
  EXPECT_TRUE(LinearizabilityChecker::is_linearizable(one_fails));
}

TEST(LinCheck, PendingOpMayOrMayNotTakeEffect) {
  // A PUT with no response (client crashed): a later read may see either
  // state.
  std::vector<HistoryOp> seen{
      op(mk(KvOp::kPut, "a", "1"), 0, kTimeNever, {}),
      op(mk(KvOp::kGet, "a"), 100, 110, res(true, true, "1")),
  };
  std::vector<HistoryOp> unseen{
      op(mk(KvOp::kPut, "a", "1"), 0, kTimeNever, {}),
      op(mk(KvOp::kGet, "a"), 100, 110, res(false, false, "")),
  };
  EXPECT_TRUE(LinearizabilityChecker::is_linearizable(seen));
  EXPECT_TRUE(LinearizabilityChecker::is_linearizable(unseen));
}

TEST(LinCheck, AppendOrderMatters) {
  // Sequential appends "a" then "b"; a later read of "ba" is impossible.
  std::vector<HistoryOp> good{
      op(mk(KvOp::kAppend, "log", "a"), 0, 10, res(true, false, "a")),
      op(mk(KvOp::kAppend, "log", "b"), 20, 30, res(true, true, "ab")),
      op(mk(KvOp::kGet, "log"), 40, 50, res(true, true, "ab")),
  };
  std::vector<HistoryOp> bad{
      op(mk(KvOp::kAppend, "log", "a"), 0, 10, res(true, false, "a")),
      op(mk(KvOp::kAppend, "log", "b"), 20, 30, res(true, true, "ab")),
      op(mk(KvOp::kGet, "log"), 40, 50, res(true, true, "ba")),
  };
  EXPECT_TRUE(LinearizabilityChecker::is_linearizable(good));
  EXPECT_FALSE(LinearizabilityChecker::is_linearizable(bad));
}

TEST(LinCheck, RegisterSpecSharesOneCell) {
  // Under the register spec every command addresses the same cell, so a
  // put on "a" must be visible to a later get on "b"; under the per-key
  // map spec the same history is a violation (key "b" was never written).
  std::vector<HistoryOp> h{
      op(mk(KvOp::kPut, "a", "1"), 0, 10, res(true, false, "1")),
      op(mk(KvOp::kGet, "b"), 20, 30, res(true, true, "1")),
  };
  EXPECT_EQ(LinearizabilityChecker::check(h, RegisterSpec{}),
            LinVerdict::kLinearizable);
  EXPECT_EQ(LinearizabilityChecker::check(h, KvMapSpec{}),
            LinVerdict::kNotLinearizable);
}

TEST(LinCheck, ReportWitnessCoversEveryPartition) {
  std::vector<HistoryOp> h{
      op(mk(KvOp::kPut, "a", "1"), 0, 10, res(true, false, "1")),
      op(mk(KvOp::kPut, "b", "2"), 0, 10, res(true, false, "2")),
      op(mk(KvOp::kGet, "a"), 5, 25, res(true, true, "1")),
      op(mk(KvOp::kGet, "b"), 20, 30, res(true, true, "2")),
  };
  LinReport report = LinearizabilityChecker::check_report(h);
  EXPECT_EQ(report.verdict, LinVerdict::kLinearizable);
  EXPECT_EQ(report.partitions, 2u);
  EXPECT_TRUE(report.failed_partition.empty());
  // Witness is a permutation of all history indices.
  ASSERT_EQ(report.witness.size(), h.size());
  std::vector<bool> seen(h.size(), false);
  for (std::size_t idx : report.witness) {
    ASSERT_LT(idx, h.size());
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(LinCheck, ReportCoreIsolatesTheFailingKey) {
  // Key "a" is healthy; key "b" has a stale read. The report must name
  // partition "b" and the core must stay within b's ops.
  std::vector<HistoryOp> h{
      op(mk(KvOp::kPut, "a", "1"), 0, 10, res(true, false, "1")),
      op(mk(KvOp::kGet, "a"), 20, 30, res(true, true, "1")),
      op(mk(KvOp::kPut, "b", "2"), 0, 10, res(true, false, "2")),
      op(mk(KvOp::kPut, "b", "3"), 20, 30, res(true, true, "3")),
      op(mk(KvOp::kGet, "b"), 40, 50, res(true, true, "2")),
  };
  LinReport report = LinearizabilityChecker::check_report(h);
  ASSERT_EQ(report.verdict, LinVerdict::kNotLinearizable);
  EXPECT_EQ(report.failed_partition, "b");
  ASSERT_FALSE(report.core.empty());
  EXPECT_LE(report.core.size(), 2u);  // put "3" + stale get suffice
  for (std::size_t idx : report.core) {
    ASSERT_LT(idx, h.size());
    EXPECT_EQ(h[idx].cmd.key, "b");
  }
}

TEST(LinCheck, ExhaustedBudgetIsItsOwnVerdict) {
  std::vector<HistoryOp> h{
      op(mk(KvOp::kPut, "a", "1"), 0, 10, res(true, false, "1")),
      op(mk(KvOp::kPut, "a", "2"), 0, 10, res(true, true, "2")),
      op(mk(KvOp::kGet, "a"), 20, 30, res(true, true, "2")),
  };
  LinOptions tiny;
  tiny.max_nodes = 1;
  EXPECT_EQ(LinearizabilityChecker::check(h, tiny),
            LinVerdict::kBudgetExceeded);
  EXPECT_FALSE(LinearizabilityChecker::is_linearizable(h, tiny));
  LinReport report = LinearizabilityChecker::check_report(h, tiny);
  EXPECT_EQ(report.verdict, LinVerdict::kBudgetExceeded);
  EXPECT_EQ(report.failed_partition, "a");
  // An honest budget: the same history checks fine without the cap.
  EXPECT_TRUE(LinearizabilityChecker::is_linearizable(h));
}

TEST(LinCheck, ThousandsOfOpsAcrossKeysStayTractable) {
  // v2's reason to exist: a per-key partitioned, memoized search handles a
  // few thousand ops with modest concurrency without blowing the budget.
  std::vector<HistoryOp> h;
  constexpr int kKeys = 16;
  std::vector<std::string> value(kKeys);
  for (int i = 0; i < 4000; ++i) {
    const std::string key = "k" + std::to_string(i % kKeys);
    std::string& cell = value[static_cast<std::size_t>(i % kKeys)];
    const TimePoint t = static_cast<TimePoint>(10 * i);
    if (i % 3 == 0) {
      h.push_back(op(mk(KvOp::kGet, key), t, t + 25,
                     res(!cell.empty(), !cell.empty(), cell)));
    } else {
      const bool found = !cell.empty();
      cell = "v" + std::to_string(i);
      // responded at t+25: overlaps the next couple of ops on other keys.
      h.push_back(op(mk(KvOp::kPut, key, cell), t, t + 25,
                     res(true, found, cell)));
    }
  }
  LinReport report = LinearizabilityChecker::check_report(h);
  EXPECT_EQ(report.verdict, LinVerdict::kLinearizable);
  EXPECT_EQ(report.partitions, static_cast<std::size_t>(kKeys));
  EXPECT_EQ(report.witness.size(), h.size());
}

// --- full-stack histories ----------------------------------------------------

std::vector<HistoryOp> run_cluster_history(std::uint64_t seed, int num_ops,
                                           bool crash_leader) {
  constexpr int kN = 3;
  SystemSParams params;
  params.sources = {2};
  params.gst = 200 * kMillisecond;
  Simulator sim(SimConfig{kN, seed, 10 * kMillisecond},
                make_system_s(params));
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < kN; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = CeOmegaConfig{},
                                     .consensus = LogConsensusConfig{},
                                     .sharded = ShardedReplicaConfig{}}));
  }

  auto history = std::make_shared<std::vector<HistoryOp>>();
  Rng workload(seed * 7 + 1);
  for (int i = 0; i < num_ops; ++i) {
    TimePoint at = 1 * kSecond + i * 150 * kMillisecond;
    sim.schedule(at, [&, i]() {
      auto submitter = static_cast<ProcessId>(workload.next_below(kN));
      if (!sim.alive(submitter)) return;
      KvOp ops[] = {KvOp::kPut, KvOp::kGet, KvOp::kAppend, KvOp::kCas};
      KvOp op = ops[workload.next_below(4)];
      std::string key = "k" + std::to_string(workload.next_below(2));
      std::string value = "v" + std::to_string(i);
      std::string expected;  // CAS against empty: succeeds only on fresh key
      auto idx = history->size();
      HistoryOp h;
      h.cmd.op = op;
      h.cmd.key = key;
      h.cmd.value = value;
      h.cmd.expected = expected;
      h.invoked = sim.now();
      history->push_back(h);
      replicas[submitter]->submit(op, key, value, expected,
                                  [&, idx](const KvResult& r) {
                                    (*history)[idx].responded = sim.now();
                                    (*history)[idx].result = r;
                                  });
    });
  }
  if (crash_leader) sim.crash_at(0, 2 * kSecond);
  sim.start();
  sim.run_until(120 * kSecond);
  return *history;
}

TEST(LinCluster, QuietClusterHistoryIsLinearizable) {
  auto history = run_cluster_history(/*seed=*/41, /*num_ops=*/25,
                                     /*crash_leader=*/false);
  ASSERT_GE(history.size(), 20u);
  EXPECT_EQ(LinearizabilityChecker::check(history),
            LinearizabilityChecker::Verdict::kLinearizable);
}

TEST(LinCluster, LeaderCrashHistoryIsLinearizable) {
  auto history = run_cluster_history(/*seed=*/42, /*num_ops=*/25,
                                     /*crash_leader=*/true);
  ASSERT_GE(history.size(), 10u);
  EXPECT_EQ(LinearizabilityChecker::check(history),
            LinearizabilityChecker::Verdict::kLinearizable);
}

TEST(LinCluster, MultipleSeeds) {
  for (std::uint64_t seed : {50ULL, 51ULL, 52ULL}) {
    auto history = run_cluster_history(seed, /*num_ops=*/20,
                                       /*crash_leader=*/seed % 2 == 0);
    EXPECT_EQ(LinearizabilityChecker::check(history),
              LinearizabilityChecker::Verdict::kLinearizable)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace lls
