// End-to-end client-session test: exactly-once command application across a
// Nemesis-forced crash of the initial leader.
//
// The fault schedule is pinned, not sampled: every disturbance kind except
// crash-stop is disabled and every process except p0 is protected, so the
// only event Nemesis can plan is a permanent kill of p0 — which, under
// all-timely links, is the leader the cluster first stabilizes on. Clients
// must ride the redirect/retry protocol through the failover with zero
// duplicate and zero lost acked commands.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/cluster_client.h"
#include "client/session.h"
#include "net/topology.h"
#include "rsm/history.h"
#include "rsm/linearizability.h"
#include "shard/sharded_replica.h"
#include "sim/nemesis.h"
#include "sim/simulator.h"

namespace lls {
namespace {

TEST(ClientSession, WatermarkAdvancesOverContiguousPrefix) {
  ClientSession session;
  EXPECT_EQ(session.next_seq(), 1u);
  EXPECT_EQ(session.next_seq(), 2u);
  EXPECT_EQ(session.next_seq(), 3u);
  EXPECT_EQ(session.ack_upto(), 0u);

  session.complete(2);  // gap at 1: watermark must not move
  EXPECT_EQ(session.ack_upto(), 0u);
  EXPECT_TRUE(session.is_complete(2));
  EXPECT_FALSE(session.is_complete(1));

  session.complete(1);  // fills the gap: watermark jumps over both
  EXPECT_EQ(session.ack_upto(), 2u);
  session.complete(3);
  EXPECT_EQ(session.ack_upto(), 3u);
  EXPECT_EQ(session.issued(), 3u);
  EXPECT_EQ(session.completed(), 3u);
}

TEST(ClientSessionE2E, ExactlyOnceAcrossForcedLeaderCrash) {
  constexpr int kClusterN = 5;
  constexpr int kClients = 3;
  SimConfig sc;
  sc.n = kClusterN + kClients;
  sc.seed = 7;
  LinkFactory base = make_all_timely({500, 2 * kMillisecond});
  Simulator sim(sc, base);
  // Server-side history view, assembled from obs client-request/reply
  // events; checked against the client-side record below.
  BusHistoryRecorder recorder(sim.plane().bus());

  KvReplicaConfig rc;
  rc.cluster_n = kClusterN;
  rc.max_batch = 4;
  rc.batch_flush_delay = 2 * kMillisecond;
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < kClusterN; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = CeOmegaConfig{},
                                     .consensus = LogConsensusConfig{},
                                     .sharded = {.shards = 1, .replica = rc}}));
  }
  ClusterClientConfig cc;
  cc.cluster_n = kClusterN;
  cc.window = 2;
  cc.attempt_timeout = 100 * kMillisecond;
  cc.backoff_max = 240 * kMillisecond;
  std::vector<ClusterClient*> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(&sim.emplace_actor<ClusterClient>(
        static_cast<ProcessId>(kClusterN + c), cc));
  }

  NemesisConfig nc;
  nc.seed = 7;
  nc.start = 3 * kSecond;
  nc.quiesce = 8 * kSecond;
  nc.isolate = false;
  nc.partition_pair = false;
  nc.delay_storm = false;
  nc.duplicate_storm = false;
  nc.reorder_window = false;
  nc.corrupt_storm = false;
  nc.stalls = false;
  nc.crash_stop_budget = 1;
  for (ProcessId p = 1; p < static_cast<ProcessId>(sc.n); ++p) {
    nc.protected_processes.push_back(p);
  }
  Nemesis nemesis(sim, base, nc);
  ASSERT_EQ(nemesis.killed().size(), 1u) << nemesis.schedule_dump();
  ASSERT_EQ(nemesis.killed()[0], 0) << nemesis.schedule_dump();

  // Closed loop of uniquely-tokened appends until submit_end.
  const TimePoint submit_end = 10 * kSecond;
  const TimePoint horizon = 16 * kSecond;
  auto acked_tokens = std::make_shared<std::vector<std::string>>();
  auto history = std::make_shared<std::vector<HistoryOp>>();
  auto counter = std::make_shared<std::uint64_t>(0);
  auto submit_one = std::make_shared<std::function<void(int)>>();
  *submit_one = [&sim, clients, acked_tokens, history, counter, submit_end,
                 submit_one](int ci) {
    std::string token = std::to_string(kClusterN + ci) + "." +
                        std::to_string(++*counter) + ";";
    clients[static_cast<std::size_t>(ci)]->submit(
        KvOp::kAppend, "audit" + std::to_string(ci % 2), token, "",
        [&sim, acked_tokens, history, token, submit_end, submit_one,
         ci](const ClientCompletion& done) {
          if (!done.timed_out) acked_tokens->push_back(token);
          HistoryOp hop;
          hop.cmd = done.cmd;
          hop.invoked = done.invoked;
          hop.responded = done.timed_out ? kTimeNever : done.completed;
          hop.result = done.result;
          history->push_back(std::move(hop));
          if (sim.now() < submit_end) (*submit_one)(ci);
        });
  };
  sim.schedule(1 * kSecond, [submit_one]() {
    for (int c = 0; c < kClients; ++c) {
      for (int k = 0; k < 2; ++k) (*submit_one)(c);
    }
  });

  // The kill lands after nc.start; by then the cluster must have stabilized
  // on p0 so the kill really is a leader assassination, not a bystander.
  bool leader_was_p0 = false;
  sim.schedule(nc.start, [&]() {
    leader_was_p0 = replicas[1]->omega().leader() == 0;
  });

  sim.start();
  sim.run_until(horizon);
  *submit_one = nullptr;  // break the closure's shared_ptr self-cycle

  EXPECT_TRUE(leader_was_p0);
  EXPECT_FALSE(sim.alive(0));

  // Liveness: traffic kept flowing through the failover and fully drained.
  EXPECT_GT(acked_tokens->size(), 100u);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(clients[static_cast<std::size_t>(c)]->inflight(), 0u)
        << "client " << c;
    EXPECT_EQ(clients[static_cast<std::size_t>(c)]->queued(), 0u)
        << "client " << c;
    EXPECT_EQ(clients[static_cast<std::size_t>(c)]->timed_out(), 0u)
        << "client " << c;
  }

  // Safety: alive replicas agree, and the token census over their stores
  // shows every token at most once and every acked token present.
  std::uint64_t digest = 0;
  bool have_digest = false;
  for (ProcessId p = 1; p < kClusterN; ++p) {
    ASSERT_TRUE(sim.alive(p));
    const KvStore& store =
        replicas[static_cast<std::size_t>(p)]->group(0).store();
    if (!have_digest) {
      digest = store.digest();
      have_digest = true;
    } else {
      EXPECT_EQ(store.digest(), digest) << "replica " << p << " diverges";
    }
    std::map<std::string, int> census;
    for (const auto& [key, value] : store.data()) {
      std::size_t begin = 0;
      while (begin < value.size()) {
        std::size_t end = value.find(';', begin);
        ASSERT_NE(end, std::string::npos)
            << "replica " << p << " key " << key << " malformed tail";
        ++census[value.substr(begin, end - begin + 1)];
        begin = end + 1;
      }
    }
    for (const auto& [token, count] : census) {
      EXPECT_EQ(count, 1) << "replica " << p << ": token " << token
                          << " applied " << count << " times";
    }
    for (const std::string& token : *acked_tokens) {
      ASSERT_EQ(census.count(token), 1u)
          << "replica " << p << ": acked token " << token << " lost";
    }
  }
  EXPECT_TRUE(have_digest);

  // Cross-check the store census against the recorded history: the
  // client-side record must be linearizable, and replaying its witness
  // must apply every acked token exactly once, in an order consistent
  // with what each completion observed.
  ASSERT_GE(history->size(), acked_tokens->size());
  LinReport lin = LinearizabilityChecker::check_report(*history);
  ASSERT_EQ(lin.verdict, LinVerdict::kLinearizable)
      << "client-side history rejected; failing key " << lin.failed_partition
      << ", core of " << lin.core.size() << " ops";
  EXPECT_EQ(lin.partitions, 2u);  // audit0 / audit1

  KvStore replay;
  std::map<std::string, int> witness_census;
  for (std::size_t idx : lin.witness) {
    const HistoryOp& hop = (*history)[idx];
    KvResult r = replay.apply(hop.cmd);
    if (hop.responded != kTimeNever) {
      EXPECT_EQ(r.ok, hop.result.ok);
      EXPECT_EQ(r.value, hop.result.value);
    }
    ++witness_census[hop.cmd.value];
  }
  for (const std::string& token : *acked_tokens) {
    EXPECT_EQ(witness_census[token], 1)
        << "acked token " << token << " not exactly-once in witness order";
  }

  // The server-side view (obs events) spans a sub-interval of each client
  // interval and brackets the effect point, so it must check out too.
  LinReport server = LinearizabilityChecker::check_report(recorder.history());
  EXPECT_EQ(server.verdict, LinVerdict::kLinearizable)
      << "server-side history rejected; failing key "
      << server.failed_partition;
  EXPECT_GE(recorder.history().size(), acked_tokens->size());
}

}  // namespace
}  // namespace lls
