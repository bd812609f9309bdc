// Crash-recovery replicated KV store: CrKvReplica = crash-recovery Omega +
// durable consensus log + KvStore rebuilt by replaying the recovered log.
// The headline property: the replicated store survives even a full-cluster
// power loss.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "client/cluster_client.h"
#include "common/serialization.h"
#include "net/topology.h"
#include "shard/sharded_replica.h"
#include "sim/simulator.h"

namespace lls {
namespace {

// Heap-built: the simulator's observability plane makes it non-movable.
std::unique_ptr<Simulator> make_cr_kv_cluster(int n, std::uint64_t seed) {
  SimConfig config;
  config.n = n;
  config.seed = seed;
  auto sim = std::make_unique<Simulator>(config,
                                         make_all_timely({500, 2 * kMillisecond}));
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    sim->set_actor_factory(p, []() {
      LogConsensusConfig lc;
      lc.durable = true;
      return std::make_unique<CrKvReplica>(
          CrKvReplica::Options{.omega = CrOmegaConfig{},
                               .consensus = lc,
                               .sharded = ShardedReplicaConfig{}});
    });
  }
  return sim;
}

TEST(CrKv, BasicReplicationWorks) {
  auto sim_owner = make_cr_kv_cluster(3, 1);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(1).submit(KvOp::kPut, "a", "1");
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kPut, "b", "2");
  });
  sim.start();
  sim.run_until(20 * kSecond);
  auto digest = sim.actor_as<CrKvReplica>(0).group(0).store().digest();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(sim.actor_as<CrKvReplica>(p).group(0).store().digest(), digest);
    EXPECT_EQ(sim.actor_as<CrKvReplica>(p).group(0).store().applied(), 2u);
  }
}

TEST(CrKv, SingleReplicaRecoveryRebuildsStateFromDurableLog) {
  auto sim_owner = make_cr_kv_cluster(3, 2);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(0).submit(KvOp::kPut, "user", "alice");
    sim.actor_as<CrKvReplica>(0).submit(KvOp::kAppend, "log", "x");
  });
  sim.crash_at(2, 5 * kSecond);
  sim.recover_at(2, 8 * kSecond);
  sim.start();
  sim.run_until(30 * kSecond);

  // The recovered replica rebuilt its store (replayed the durable log and/or
  // caught up via DECIDE retransmission) and matches the others.
  auto& recovered = sim.actor_as<CrKvReplica>(2);
  EXPECT_EQ(recovered.group(0).store().digest(),
            sim.actor_as<CrKvReplica>(0).group(0).store().digest());
  auto it = recovered.group(0).store().data().find("user");
  ASSERT_NE(it, recovered.group(0).store().data().end());
  EXPECT_EQ(it->second, "alice");
}

TEST(CrKv, RecoveryAfterCompactionRestoresTheSnapshotPrefix) {
  // Regression (PR 9 audit): without the KvCore snapshot, a durable replica
  // recovering AFTER log compaction rebuilt its store from the surviving
  // log suffix only — the compacted prefix ("k0".."k7" here) silently
  // vanished and could never be re-fetched (the other replicas compacted
  // those decisions away too).
  auto sim_owner = make_cr_kv_cluster(3, 4);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    for (int i = 0; i < 8; ++i) {
      sim.actor_as<CrKvReplica>(0).submit(KvOp::kPut, "k" + std::to_string(i),
                                          "v" + std::to_string(i));
    }
  });
  sim.schedule(10 * kSecond, [&]() {
    for (ProcessId p = 0; p < 3; ++p) {
      KvCore& core = sim.actor_as<CrKvReplica>(p).group(0);
      EXPECT_GT(core.compact_to(core.applied_upto()), 0u);
    }
  });
  sim.crash_at(2, 12 * kSecond);
  sim.recover_at(2, 15 * kSecond);
  sim.start();
  sim.run_until(30 * kSecond);

  auto& recovered = sim.actor_as<CrKvReplica>(2);
  EXPECT_GT(recovered.group(0).consensus().compacted_upto(), 0u);
  EXPECT_EQ(recovered.group(0).store().digest(),
            sim.actor_as<CrKvReplica>(0).group(0).store().digest());
  auto it = recovered.group(0).store().data().find("k0");
  ASSERT_NE(it, recovered.group(0).store().data().end());
  EXPECT_EQ(it->second, "v0");
}

TEST(CrKv, RecoveryAfterAutomaticCompactionsRestoresTheFullStore) {
  // The automatic twin of RecoveryAfterCompactionRestoresTheSnapshotPrefix:
  // nothing here calls compact_to. The replicas compact below the leader's
  // safe point by themselves, several times, and a replica that crashes
  // after that must rebuild every key from its snapshot plus its log.
  constexpr int kWrites = 800;
  constexpr int kKeys = 50;
  auto sim_owner = make_cr_kv_cluster(3, 7);
  Simulator& sim = *sim_owner;
  auto group = [&](ProcessId p) -> KvCore& {
    return sim.actor_as<CrKvReplica>(p).group(0);
  };
  for (int i = 0; i < kWrites; ++i) {
    sim.schedule(1 * kSecond + i * 2 * kMillisecond, [&, i]() {
      sim.actor_as<CrKvReplica>(static_cast<ProcessId>(i % 3))
          .submit(KvOp::kPut, "k" + std::to_string(i % kKeys),
                  "v" + std::to_string(i));
    });
  }
  // The snapshot is written before each compaction: whenever a replica's
  // log starts above 0, its durable snapshot covers everything below.
  int uncovered = 0;
  int checked = 0;
  sim.schedule_every(1 * kSecond, 1 * kMillisecond, [&]() {
    for (ProcessId p = 0; p < 3; ++p) {
      if (!sim.alive(p)) continue;
      const Instance base = group(p).consensus().compacted_upto();
      if (base == 0) continue;
      ++checked;
      const auto blob = sim.storage(p).read(group(p).snapshot_key());
      if (!blob.has_value() || BufReader(*blob).get<Instance>() < base) {
        ++uncovered;
      }
    }
    return true;
  });
  Instance compacted_before_crash = 0;
  std::uint64_t compactions_before_crash = 0;
  sim.schedule(4900 * kMillisecond, [&]() {
    compacted_before_crash = group(2).consensus().compacted_upto();
    compactions_before_crash =
        sim.plane().registry().counter("consensus.compactions").value();
  });
  sim.crash_at(2, 5 * kSecond);
  sim.recover_at(2, 7 * kSecond);
  sim.start();
  sim.run_until(20 * kSecond);

  EXPECT_GT(checked, 0);
  EXPECT_EQ(uncovered, 0);
  // Several compactions at every replica before the crash.
  EXPECT_GE(compacted_before_crash, 3 * LogConsensus::kCompactChunk);
  EXPECT_GE(compactions_before_crash, 3u * 3u);
  const KvCore& recovered = group(2);
  EXPECT_GE(recovered.consensus().compacted_upto(), compacted_before_crash);
  EXPECT_EQ(recovered.store().digest(), group(0).store().digest());
  EXPECT_EQ(recovered.store().applied(), static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(recovered.store().data().size(), static_cast<std::size_t>(kKeys));
  const auto it = recovered.store().data().find("k0");
  ASSERT_NE(it, recovered.store().data().end());
  EXPECT_EQ(it->second, "v" + std::to_string(kWrites - kKeys));
}

TEST(CrKv, CoordinatedCompactionClampsToTheGivenWatermark) {
  auto sim_owner = make_cr_kv_cluster(3, 5);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    for (int i = 0; i < 6; ++i) {
      sim.actor_as<CrKvReplica>(0).submit(KvOp::kPut, "k" + std::to_string(i),
                                          "v");
    }
  });
  sim.schedule(10 * kSecond, [&]() {
    KvCore& r = sim.actor_as<CrKvReplica>(1).group(0);
    ASSERT_GT(r.applied_upto(), 2u);
    // compact_to never outruns the cluster watermark it is handed...
    EXPECT_EQ(r.compact_to(2), 2u);
    // ...nor this replica's own applied prefix.
    EXPECT_LE(r.compact_to(r.applied_upto() + 100), r.applied_upto());
  });
  sim.start();
  sim.run_until(12 * kSecond);
}

TEST(CrKv, FullClusterPowerLossPreservesTheStore) {
  auto sim_owner = make_cr_kv_cluster(3, 3);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(0).submit(KvOp::kPut, "k1", "v1");
    sim.actor_as<CrKvReplica>(1).submit(KvOp::kPut, "k2", "v2");
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kAppend, "audit", "a");
  });
  // Power loss: everyone down at 10s; staggered recovery by 13s.
  for (ProcessId p = 0; p < 3; ++p) {
    sim.crash_at(p, 10 * kSecond);
    sim.recover_at(p, 12 * kSecond + p * 300 * kMillisecond);
  }
  // Post-restart writes.
  sim.schedule(20 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(1).submit(KvOp::kAppend, "audit", "b");
  });
  sim.start();
  sim.run_until(60 * kSecond);

  for (ProcessId p = 0; p < 3; ++p) {
    const auto& store = sim.actor_as<CrKvReplica>(p).group(0).store();
    EXPECT_EQ(store.digest(),
              sim.actor_as<CrKvReplica>(0).group(0).store().digest());
    auto k1 = store.data().find("k1");
    ASSERT_NE(k1, store.data().end()) << "p" << p;
    EXPECT_EQ(k1->second, "v1");
    auto audit = store.data().find("audit");
    ASSERT_NE(audit, store.data().end());
    EXPECT_EQ(audit->second, "ab");  // pre-crash 'a' survived, 'b' appended
  }
}

TEST(CrKv, ExactlyOnceAcrossIncarnations) {
  // The churning replica's sequence numbers are namespaced by incarnation,
  // so post-recovery submissions are not mistaken for duplicates.
  auto sim_owner = make_cr_kv_cluster(3, 4);
  Simulator& sim = *sim_owner;
  sim.schedule(1 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kAppend, "tape", ".");
  });
  sim.crash_at(2, 3 * kSecond);
  sim.recover_at(2, 5 * kSecond);
  sim.schedule(8 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kAppend, "tape", ".");
  });
  sim.crash_at(2, 12 * kSecond);
  sim.recover_at(2, 14 * kSecond);
  sim.schedule(17 * kSecond, [&]() {
    sim.actor_as<CrKvReplica>(2).submit(KvOp::kAppend, "tape", ".");
  });
  sim.start();
  sim.run_until(60 * kSecond);
  auto it = sim.actor_as<CrKvReplica>(0).group(0).store().data().find("tape");
  ASSERT_NE(it, sim.actor_as<CrKvReplica>(0).group(0).store().data().end());
  EXPECT_EQ(it->second, "...");  // three appends, each applied exactly once
}

TEST(CrKv, ChurnWithSteadyWritesConverges) {
  auto sim_owner = make_cr_kv_cluster(5, 5);
  Simulator& sim = *sim_owner;
  // p4 churns; writes flow from the stable trio.
  for (TimePoint t = 2 * kSecond; t < 28 * kSecond; t += 3 * kSecond) {
    sim.crash_at(4, t);
    sim.recover_at(4, t + 1 * kSecond);
  }
  for (int i = 0; i < 30; ++i) {
    sim.schedule(1 * kSecond + i * 400 * kMillisecond, [&, i]() {
      sim.actor_as<CrKvReplica>(static_cast<ProcessId>(i % 3))
          .submit(KvOp::kAppend, "t", ".");
    });
  }
  sim.start();
  sim.run_until(120 * kSecond);
  for (ProcessId p = 0; p < 5; ++p) {
    const auto& store = sim.actor_as<CrKvReplica>(p).group(0).store();
    auto it = store.data().find("t");
    ASSERT_NE(it, store.data().end()) << "p" << p;
    EXPECT_EQ(it->second.size(), 30u) << "p" << p;
  }
}

/// Size of replica 0's durable snapshot after one client session ran `ops`
/// ops (half lease-served reads, half puts over 8 keys) and the log was
/// compacted below everything applied.
std::size_t snapshot_bytes_after(int ops) {
  constexpr int kReplicas = 3;
  constexpr ProcessId kClient = kReplicas;
  SimConfig config;
  config.n = kReplicas + 1;
  config.seed = 6;
  Simulator sim(config, make_all_timely({500, 2 * kMillisecond}));
  LogConsensusConfig lc;
  lc.durable = true;
  lc.lease.enabled = true;
  ShardedReplicaConfig sc;
  sc.replica.cluster_n = kReplicas;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    sim.set_actor_factory(p, [lc, sc]() {
      return std::make_unique<CrKvReplica>(CrKvReplica::Options{
          .omega = CrOmegaConfig{}, .consensus = lc, .sharded = sc});
    });
  }
  ClusterClientConfig cc;
  cc.cluster_n = kReplicas;
  cc.window = 8;
  cc.lease_reads = true;
  auto& client = sim.emplace_actor<ClusterClient>(kClient, cc);
  int issued = 0;
  std::function<void()> next = [&]() {
    if (issued == ops) return;
    const int i = issued++;
    const std::string key = "k" + std::to_string(i % 8);
    auto done = [&](const ClientCompletion&) { next(); };
    if (i % 2 == 0) {
      client.get(key, done);
    } else {
      client.submit(KvOp::kPut, key, "v", "", done);
    }
  };
  sim.schedule(1 * kSecond, [&]() {
    for (int k = 0; k < 8; ++k) next();
  });
  sim.start();
  sim.run_until(1 * kSecond + ops * 5 * kMillisecond);
  EXPECT_EQ(client.acked(), static_cast<std::uint64_t>(ops));
  KvCore& core = sim.actor_as<CrKvReplica>(0).group(0);
  EXPECT_GT(core.compact_to(core.applied_upto()), 0u);
  const auto blob = sim.storage(0).read(core.snapshot_key());
  EXPECT_TRUE(blob.has_value());
  return blob.has_value() ? blob->size() : 0;
}

TEST(CrKv, SnapshotSizeDoesNotGrowWithOpsApplied) {
  // The dedup state is a watermark plus the sparse seqs above it per
  // origin, raised by the ack_upto each command carries: lease-served
  // reads leave a hole at every read seq, so only the client's watermark
  // moves past them. Stored as a full applied-seq set, the snapshot grew
  // by 8 bytes per write.
  const std::size_t small = snapshot_bytes_after(200);
  const std::size_t large = snapshot_bytes_after(2000);
  EXPECT_LE(large, small + 8 * sizeof(std::uint64_t))
      << "200 ops: " << small << " B, 2000 ops: " << large << " B";
}

}  // namespace
}  // namespace lls
