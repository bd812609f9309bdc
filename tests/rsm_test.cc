// Tests of the RSM layer: KvStore semantics (unit), and full-stack
// replication (integration): convergence, exactly-once application, reads
// through the log, behaviour across leader crashes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/topology.h"
#include "shard/sharded_replica.h"
#include "sim/simulator.h"

namespace lls {
namespace {

// --- KvStore unit ----------------------------------------------------------

Command cmd(KvOp op, std::string key, std::string value = "",
            std::string expected = "") {
  Command c;
  c.origin = 0;
  c.seq = 0;
  c.op = op;
  c.key = std::move(key);
  c.value = std::move(value);
  c.expected = std::move(expected);
  return c;
}

TEST(KvStore, PutAndGet) {
  KvStore kv;
  EXPECT_TRUE(kv.apply(cmd(KvOp::kPut, "a", "1")).ok);
  auto r = kv.apply(cmd(KvOp::kGet, "a"));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, "1");
}

TEST(KvStore, GetMissingFails) {
  KvStore kv;
  auto r = kv.apply(cmd(KvOp::kGet, "nope"));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.found);
}

TEST(KvStore, DeleteSemantics) {
  KvStore kv;
  kv.apply(cmd(KvOp::kPut, "a", "1"));
  EXPECT_TRUE(kv.apply(cmd(KvOp::kDel, "a")).ok);
  EXPECT_FALSE(kv.apply(cmd(KvOp::kDel, "a")).ok);  // already gone
  EXPECT_FALSE(kv.apply(cmd(KvOp::kGet, "a")).ok);
}

TEST(KvStore, AppendBuildsValue) {
  KvStore kv;
  kv.apply(cmd(KvOp::kAppend, "log", "a"));
  kv.apply(cmd(KvOp::kAppend, "log", "b"));
  auto r = kv.apply(cmd(KvOp::kAppend, "log", "c"));
  EXPECT_EQ(r.value, "abc");
}

TEST(KvStore, CasSucceedsOnlyOnMatch) {
  KvStore kv;
  kv.apply(cmd(KvOp::kPut, "a", "1"));
  EXPECT_FALSE(kv.apply(cmd(KvOp::kCas, "a", "2", "wrong")).ok);
  EXPECT_EQ(kv.apply(cmd(KvOp::kGet, "a")).value, "1");
  EXPECT_TRUE(kv.apply(cmd(KvOp::kCas, "a", "2", "1")).ok);
  EXPECT_EQ(kv.apply(cmd(KvOp::kGet, "a")).value, "2");
}

TEST(KvStore, CasOnMissingKeyComparesAgainstEmpty) {
  KvStore kv;
  EXPECT_TRUE(kv.apply(cmd(KvOp::kCas, "fresh", "v", "")).ok);
  EXPECT_EQ(kv.apply(cmd(KvOp::kGet, "fresh")).value, "v");
}

TEST(KvStore, DigestTracksState) {
  KvStore a;
  KvStore b;
  EXPECT_EQ(a.digest(), b.digest());
  a.apply(cmd(KvOp::kPut, "x", "1"));
  EXPECT_NE(a.digest(), b.digest());
  b.apply(cmd(KvOp::kPut, "x", "1"));
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(KvStore, CommandCodecRoundTrip) {
  Command c;
  c.origin = 3;
  c.seq = 99;
  c.op = KvOp::kCas;
  c.key = "k";
  c.value = "v";
  c.expected = "e";
  Command d = Command::decode(c.encode());
  EXPECT_EQ(d.origin, 3u);
  EXPECT_EQ(d.seq, 99u);
  EXPECT_EQ(d.op, KvOp::kCas);
  EXPECT_EQ(d.key, "k");
  EXPECT_EQ(d.value, "v");
  EXPECT_EQ(d.expected, "e");
}

// --- Full-stack replication -------------------------------------------------

struct Cluster {
  Simulator sim;
  std::vector<ShardedKvReplica*> replicas;

  explicit Cluster(int n, std::uint64_t seed, LinkFactory links,
                   KvReplicaConfig replica_config = {})
      : sim(SimConfig{n, seed, 10 * kMillisecond}, links) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
          p, ShardedKvReplica::Options{
                 .omega = CeOmegaConfig{},
                 .consensus = LogConsensusConfig{},
                 .sharded = {.shards = 1, .replica = replica_config}}));
    }
  }
};

LinkFactory timely() { return make_all_timely({500, 2 * kMillisecond}); }

TEST(KvReplication, AllReplicasConvergeToSameState) {
  Cluster c(5, 1, timely());
  c.sim.schedule(1 * kSecond, [&]() {
    c.replicas[0]->submit(KvOp::kPut, "a", "1");
    c.replicas[2]->submit(KvOp::kPut, "b", "2");
    c.replicas[4]->submit(KvOp::kAppend, "a", "x");
  });
  c.sim.start();
  c.sim.run_until(20 * kSecond);
  auto digest = c.replicas[0]->group(0).store().digest();
  for (auto* r : c.replicas) {
    EXPECT_EQ(r->group(0).store().digest(), digest);
    EXPECT_EQ(r->group(0).store().applied(), 3u);
  }
}

TEST(KvReplication, CallbackFiresWithResult) {
  // The Get is sent from the Put's callback: two commands submitted at
  // once may be ordered either way over non-FIFO links (see
  // KvReplicaConfig::fifo_client_order), so only a sequential client is
  // owed its own write.
  Cluster c(3, 2, timely());
  std::vector<std::string> reads;
  c.sim.schedule(1 * kSecond, [&]() {
    c.replicas[1]->submit(KvOp::kPut, "k", "hello", "", [&](const KvResult&) {
      c.replicas[1]->submit(
          KvOp::kGet, "k", "", "",
          [&](const KvResult& r) { reads.push_back(r.value); });
    });
  });
  c.sim.start();
  c.sim.run_until(20 * kSecond);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0], "hello");
}

TEST(KvReplication, ConcurrentSubmissionsConvergeEvenIfReordered) {
  // The paper's links are non-FIFO, so concurrently submitted commands may
  // land in the log in any order — but every replica must see the *same*
  // order and apply all of them.
  Cluster c(3, 3, timely());
  c.sim.schedule(1 * kSecond, [&]() {
    for (int i = 0; i < 10; ++i) {
      c.replicas[2]->submit(KvOp::kAppend, "seq", std::to_string(i));
    }
  });
  c.sim.start();
  c.sim.run_until(30 * kSecond);
  auto it = c.replicas[0]->group(0).store().data().find("seq");
  ASSERT_NE(it, c.replicas[0]->group(0).store().data().end());
  EXPECT_EQ(it->second.size(), 10u);
  for (auto* r : c.replicas) {
    EXPECT_EQ(r->group(0).store().digest(),
              c.replicas[0]->group(0).store().digest());
  }
}

TEST(KvReplication, FifoSessionModePreservesClientOrder) {
  // With the FIFO session option, one command is outstanding at a time, so
  // a client's appends apply in submission order despite non-FIFO links.
  KvReplicaConfig rc;
  rc.fifo_client_order = true;
  Cluster c(3, 3, timely(), rc);
  c.sim.schedule(1 * kSecond, [&]() {
    for (int i = 0; i < 10; ++i) {
      c.replicas[2]->submit(KvOp::kAppend, "seq", std::to_string(i));
    }
  });
  c.sim.start();
  c.sim.run_until(60 * kSecond);
  auto it = c.replicas[0]->group(0).store().data().find("seq");
  ASSERT_NE(it, c.replicas[0]->group(0).store().data().end());
  EXPECT_EQ(it->second, "0123456789");
}

TEST(KvReplication, SurvivesLeaderCrashWithExactlyOnceApply) {
  SystemSParams params;
  params.sources = {2};
  params.gst = 500 * kMillisecond;
  Cluster c(5, 4, make_system_s(params));
  // Steady stream of writes across the crash of the initial leader (0).
  for (int i = 0; i < 30; ++i) {
    c.sim.schedule(1 * kSecond + i * 200 * kMillisecond, [&, i]() {
      ProcessId submitter = 1 + static_cast<ProcessId>(i % 4);  // skip 0
      c.replicas[submitter]->submit(KvOp::kAppend, "tape", ".");
    });
  }
  c.sim.crash_at(0, 3500 * kMillisecond);
  c.sim.start();
  c.sim.run_until(120 * kSecond);

  // Every live replica applied each of the 30 appends exactly once.
  for (ProcessId p = 1; p < 5; ++p) {
    const auto& data = c.replicas[p]->group(0).store().data();
    auto it = data.find("tape");
    ASSERT_NE(it, data.end()) << "replica " << p;
    EXPECT_EQ(it->second.size(), 30u) << "replica " << p;
  }
  // Convergence.
  auto digest = c.replicas[1]->group(0).store().digest();
  for (ProcessId p = 2; p < 5; ++p) {
    EXPECT_EQ(c.replicas[p]->group(0).store().digest(), digest);
  }
}

TEST(KvReplication, HeavyMixedWorkloadConverges) {
  Cluster c(5, 5, timely());
  for (int i = 0; i < 100; ++i) {
    c.sim.schedule(1 * kSecond + i * 20 * kMillisecond, [&, i]() {
      auto* r = c.replicas[static_cast<std::size_t>(i % 5)];
      switch (i % 4) {
        case 0: r->submit(KvOp::kPut, "k" + std::to_string(i % 7),
                          std::to_string(i)); break;
        case 1: r->submit(KvOp::kAppend, "log", "."); break;
        case 2: r->submit(KvOp::kDel, "k" + std::to_string((i + 3) % 7)); break;
        case 3: r->submit(KvOp::kCas, "cas", std::to_string(i), ""); break;
      }
    });
  }
  c.sim.start();
  c.sim.run_until(60 * kSecond);
  auto digest = c.replicas[0]->group(0).store().digest();
  auto applied = c.replicas[0]->group(0).store().applied();
  EXPECT_EQ(applied, 100u);
  for (auto* r : c.replicas) {
    EXPECT_EQ(r->group(0).store().digest(), digest);
    EXPECT_EQ(r->group(0).store().applied(), applied);
  }
}

}  // namespace
}  // namespace lls

namespace lls {
namespace {

TEST(KvBatching, CommandBatchCodecRoundTrip) {
  CommandBatch batch;
  for (int i = 0; i < 3; ++i) {
    Command c;
    c.origin = 1;
    c.seq = static_cast<std::uint64_t>(i);
    c.op = KvOp::kPut;
    c.key = "k" + std::to_string(i);
    c.value = "v";
    batch.commands.push_back(c);
  }
  CommandBatch d = CommandBatch::decode(batch.encode());
  ASSERT_EQ(d.commands.size(), 3u);
  EXPECT_EQ(d.commands[2].key, "k2");
  EXPECT_EQ(d.commands[2].seq, 2u);
}

TEST(KvBatching, BatchedBurstAppliesEverythingOnce) {
  KvReplicaConfig rc;
  rc.max_batch = 8;
  Cluster c(3, 11, timely(), rc);
  c.sim.schedule(1 * kSecond, [&]() {
    for (int i = 0; i < 40; ++i) {
      c.replicas[1]->submit(KvOp::kAppend, "tape", ".");
    }
  });
  c.sim.start();
  c.sim.run_until(30 * kSecond);
  for (auto* r : c.replicas) {
    auto it = r->group(0).store().data().find("tape");
    ASSERT_NE(it, r->group(0).store().data().end());
    EXPECT_EQ(it->second.size(), 40u);
    EXPECT_EQ(r->group(0).store().applied(), 40u);
  }
}

TEST(KvBatching, PartialBatchFlushesOnTimer) {
  KvReplicaConfig rc;
  rc.max_batch = 100;  // never filled by this workload
  rc.batch_flush_delay = 5 * kMillisecond;
  Cluster c(3, 12, timely(), rc);
  bool done = false;
  c.sim.schedule(1 * kSecond, [&]() {
    c.replicas[2]->submit(KvOp::kPut, "x", "1", "",
                          [&](const KvResult&) { done = true; });
  });
  c.sim.start();
  c.sim.run_until(10 * kSecond);
  EXPECT_TRUE(done);  // the lone command did not wait for a full batch
}

TEST(KvBatching, BatchingUsesFewerConsensusInstancesUnderBurst) {
  auto run = [](std::size_t batch) {
    KvReplicaConfig rc;
    rc.max_batch = batch;
    Cluster c(3, 13, timely(), rc);
    c.sim.schedule(1 * kSecond, [&]() {
      for (int i = 0; i < 60; ++i) {
        c.replicas[0]->submit(KvOp::kAppend, "t", ".");
      }
    });
    c.sim.start();
    c.sim.run_until(30 * kSecond);
    EXPECT_EQ(c.replicas[1]->group(0).store().applied(), 60u);
    // Instances used.
    return c.replicas[1]->group(0).consensus().first_unknown();
  };
  Instance unbatched = run(1);
  Instance batched = run(16);
  EXPECT_GE(unbatched, 60u);
  EXPECT_LE(batched, 10u);
}

}  // namespace
}  // namespace lls
