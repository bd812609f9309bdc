// Replicated key-value store over the full paper stack (CE-Omega +
// communication-efficient consensus), running live on the thread-per-process
// real-time runtime. Writes are submitted at different replicas, the elected
// leader is crashed mid-workload, and the survivors keep serving and
// converge to identical state.
//
//   ./examples/replicated_kv
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "net/topology.h"
#include "shard/sharded_replica.h"
#include "runtime/thread_runtime.h"

using namespace lls;

namespace {

CeOmegaConfig omega_config() {
  CeOmegaConfig c;
  c.eta = 5 * kMillisecond;
  c.initial_timeout = 20 * kMillisecond;
  return c;
}

LogConsensusConfig log_config() {
  LogConsensusConfig c;
  c.retry_period = 10 * kMillisecond;
  return c;
}

void submit_and_wait(ThreadCluster& cluster, ShardedKvReplica& replica,
                     ProcessId at, KvOp op, const std::string& key,
                     const std::string& value) {
  std::atomic<bool> done{false};
  std::string result;
  cluster.post(at, [&]() {
    replica.submit(op, key, value, "", [&](const KvResult& r) {
      result = r.value;
      done.store(true);
    });
  });
  for (int i = 0; i < 600 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::printf("  [p%u] %s %-10s %-12s -> %s\n", at,
              op == KvOp::kPut ? "PUT" : op == KvOp::kAppend ? "APP" : "GET",
              key.c_str(), value.c_str(),
              done.load() ? (result.empty() ? "(ok)" : result.c_str())
                          : "TIMEOUT");
}

}  // namespace

int main() {
  constexpr int kN = 5;
  ThreadCluster cluster({kN, /*seed=*/7},
                        make_all_timely({200, 1 * kMillisecond}));
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < kN; ++p) {
    replicas.push_back(&cluster.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = omega_config(),
                                     .consensus = log_config(),
                                     .sharded = ShardedReplicaConfig{}}));
  }
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::puts("== Writes submitted at different replicas ==");
  submit_and_wait(cluster, *replicas[1], 1, KvOp::kPut, "user:1", "alice");
  submit_and_wait(cluster, *replicas[3], 3, KvOp::kPut, "user:2", "bob");
  submit_and_wait(cluster, *replicas[4], 4, KvOp::kAppend, "audit", "w1;");

  std::puts("\n== Crashing the leader (p0) mid-service ==");
  cluster.crash(0);
  submit_and_wait(cluster, *replicas[2], 2, KvOp::kPut, "user:3", "carol");
  submit_and_wait(cluster, *replicas[1], 1, KvOp::kAppend, "audit", "w2;");
  submit_and_wait(cluster, *replicas[3], 3, KvOp::kGet, "user:1", "");

  // Convergence check across survivors.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::vector<std::uint64_t> digests(kN, 0);
  std::vector<std::uint64_t> applied(kN, 0);
  std::atomic<int> done{0};
  for (ProcessId p = 1; p < kN; ++p) {
    cluster.post(p, [&, p]() {
      digests[p] = replicas[p]->group(0).store().digest();
      applied[p] = replicas[p]->applied_count();
      done.fetch_add(1);
    });
  }
  while (done.load() < kN - 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::puts("\n== Survivor states ==");
  bool converged = true;
  for (ProcessId p = 1; p < kN; ++p) {
    std::printf("  p%u: applied=%llu digest=%016llx\n", p,
                static_cast<unsigned long long>(applied[p]),
                static_cast<unsigned long long>(digests[p]));
    converged = converged && digests[p] == digests[1];
  }
  std::printf("  messages sent cluster-wide: %llu\n",
              static_cast<unsigned long long>(cluster.messages_sent()));
  std::puts(converged ? "=> all survivors converged."
                      : "=> NOT converged (bug!)");
  cluster.stop();
  return converged ? 0 : 1;
}
