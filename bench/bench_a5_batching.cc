// A5 — Extension: command batching on the RSM layer.
//
// Beyond the paper: packing a burst of client commands into one consensus
// value amortizes the Θ(n) per-instance message cost over the batch. This
// bench submits bursts at one replica and reports consensus instances used,
// consensus-class messages per applied command, and completion time, across
// batch sizes.
// A second section measures the client-side half of the same dividend:
// ClusterClient coalesces same-turn submissions per destination into
// kClientRequestBatch wire messages, which the leader turns into one
// consensus proposal per burst — compared against the historical
// one-message-per-attempt path (--no-coalesce equivalent).
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "client/cluster_client.h"
#include "net/topology.h"
#include "shard/sharded_replica.h"
#include "sim/simulator.h"

using namespace lls;
using namespace lls::bench;

namespace {

struct Outcome {
  Instance instances_used = 0;
  double msgs_per_command = 0;
  double completion_ms = 0;
  bool converged = false;
};

Outcome run(std::size_t batch_size, int commands) {
  SimConfig config;
  config.n = 5;
  config.seed = 77;
  Simulator sim(config, make_all_timely({500, 2 * kMillisecond}));
  KvReplicaConfig rc;
  rc.max_batch = batch_size;
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < 5; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = CeOmegaConfig{},
                                     .consensus = LogConsensusConfig{},
                                     .sharded = {.shards = 1, .replica = rc}}));
  }
  // One burst at t = 2s (after election settles), all at replica 1.
  sim.schedule(2 * kSecond, [&]() {
    for (int i = 0; i < commands; ++i) {
      replicas[1]->submit(KvOp::kAppend, "t", ".");
    }
  });
  sim.start();

  // Step until every replica applied everything (or timeout).
  Outcome out;
  TimePoint done_at = 0;
  while (sim.now() < 60 * kSecond) {
    sim.run_for(10 * kMillisecond);
    bool all = true;
    for (auto* r : replicas) {
      all = all && r->group(0).store().applied() ==
                       static_cast<std::uint64_t>(commands);
    }
    if (all) {
      done_at = sim.now();
      break;
    }
  }
  out.converged = done_at != 0;
  out.instances_used = replicas[0]->group(0).consensus().first_unknown();
  out.completion_ms =
      static_cast<double>(done_at - 2 * kSecond) / kMillisecond;
  std::uint64_t consensus_msgs = sim.network().stats().sent_by_class(
      NetStats::type_class(msg_type::kConsensusBase));
  out.msgs_per_command =
      static_cast<double>(consensus_msgs) / static_cast<double>(commands);
  return out;
}

struct ClientOutcome {
  std::uint64_t acked = 0;
  std::uint64_t batches = 0;         ///< coalesced wire messages sent
  std::uint64_t batched_requests = 0;
  Instance instances_used = 0;
  std::uint64_t client_msgs = 0;     ///< 0x03xx-class wire messages
  std::uint64_t consensus_msgs = 0;
};

/// One ClusterClient bursts `commands` submissions in a single execution
/// turn (mirroring section 1's replica-side burst, but through the full
/// client protocol). With coalescing the burst leaves as one
/// kClientRequestBatch and — at max_batch=1 — the leader proposes it as one
/// CommandBatch, so the whole burst costs ~one consensus instance; without,
/// every command pays its own wire message and instance.
ClientOutcome run_client_burst(bool coalesce, int commands) {
  SimConfig config;
  config.n = 6;  // 5 replicas + 1 client
  config.seed = 77;
  Simulator sim(config, make_all_timely({500, 2 * kMillisecond}));
  KvReplicaConfig rc;
  rc.cluster_n = 5;
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < 5; ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = CeOmegaConfig{},
                                     .consensus = LogConsensusConfig{},
                                     .sharded = {.shards = 1, .replica = rc}}));
  }
  ClusterClientConfig cc;
  cc.cluster_n = 5;
  cc.window = static_cast<std::size_t>(commands);
  cc.coalesce = coalesce;
  ClusterClient& client = sim.emplace_actor<ClusterClient>(5, cc);
  sim.schedule(2 * kSecond, [&]() {
    for (int i = 0; i < commands; ++i) {
      client.submit(KvOp::kAppend, "t", ".");
    }
  });
  sim.start();
  while (sim.now() < 30 * kSecond &&
         client.acked() < static_cast<std::uint64_t>(commands)) {
    sim.run_for(10 * kMillisecond);
  }
  ClientOutcome out;
  out.acked = client.acked();
  out.batches = client.batches_sent();
  out.batched_requests = client.batched_requests();
  out.instances_used = replicas[0]->group(0).consensus().first_unknown();
  out.client_msgs = sim.network().stats().sent_by_class(
      NetStats::type_class(msg_type::kRsmBase));
  out.consensus_msgs = sim.network().stats().sent_by_class(
      NetStats::type_class(msg_type::kConsensusBase));
  return out;
}

}  // namespace

int main() {
  banner("A5 — RSM command batching (extension beyond the paper)",
         "batching amortizes the Θ(n) per-instance cost over the burst");

  Table table({"batch", "commands", "instances", "msgs/command",
               "completion(ms)", "converged"});
  std::vector<std::pair<std::size_t, Outcome>> outcomes;
  for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                            std::size_t{64}}) {
    Outcome o = run(batch, /*commands=*/128);
    table.add_row({format("%zu", batch), "128",
                   format("%llu", (unsigned long long)o.instances_used),
                   format("%.2f", o.msgs_per_command),
                   format("%.0f", o.completion_ms),
                   o.converged ? "yes" : "NO"});
    outcomes.emplace_back(batch, o);
  }
  table.print();
  std::printf(
      "\nExpectation: instances used drop ~1/batch; consensus messages per\n"
      "command drop accordingly while completion stays flat or improves.\n");

  // Regression guard: the batching dividend must actually materialize.
  // Every run must converge and consensus messages per command must
  // strictly decrease as the batch size grows from 1.
  bool ok = true;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& [batch, o] = outcomes[i];
    if (!o.converged) {
      std::fprintf(stderr, "GUARD FAILED: batch=%zu did not converge\n",
                   batch);
      ok = false;
    }
    if (i > 0 && o.msgs_per_command >= outcomes[i - 1].second.msgs_per_command) {
      std::fprintf(stderr,
                   "GUARD FAILED: msgs/command did not strictly decrease: "
                   "batch=%zu -> %.2f, batch=%zu -> %.2f\n",
                   outcomes[i - 1].first,
                   outcomes[i - 1].second.msgs_per_command, batch,
                   o.msgs_per_command);
      ok = false;
    }
  }
  if (ok) std::printf("\nGUARD OK: msgs/command strictly decreasing.\n");

  // Section 2: client-side send coalescing on a 64-command burst.
  std::printf("\nClient send coalescing (one 64-command burst, window 64):\n\n");
  ClientOutcome plain = run_client_burst(/*coalesce=*/false, 64);
  ClientOutcome packed = run_client_burst(/*coalesce=*/true, 64);
  Table ctable({"coalesce", "acked", "batches", "reqs/batch", "instances",
                "client msgs", "consensus msgs"});
  for (const auto* o : {&plain, &packed}) {
    const double pack =
        o->batches > 0 ? static_cast<double>(o->batched_requests) /
                             static_cast<double>(o->batches)
                       : 0;
    ctable.add_row({o == &plain ? "off" : "on",
                    format("%llu", (unsigned long long)o->acked),
                    format("%llu", (unsigned long long)o->batches),
                    format("%.1f", pack),
                    format("%llu", (unsigned long long)o->instances_used),
                    format("%llu", (unsigned long long)o->client_msgs),
                    format("%llu", (unsigned long long)o->consensus_msgs)});
  }
  ctable.print();

  // Guards: both paths complete the burst; coalescing must engage (batches
  // on the wire) and pay on BOTH bills — fewer client-class messages and
  // fewer consensus instances for the same 64 commands.
  if (plain.acked != 64 || packed.acked != 64) {
    std::fprintf(stderr, "GUARD FAILED: burst did not fully ack (%llu/%llu)\n",
                 (unsigned long long)plain.acked,
                 (unsigned long long)packed.acked);
    ok = false;
  }
  if (packed.batches == 0) {
    std::fprintf(stderr, "GUARD FAILED: coalesced burst sent no batches\n");
    ok = false;
  }
  if (packed.client_msgs >= plain.client_msgs) {
    std::fprintf(stderr,
                 "GUARD FAILED: coalescing did not reduce client messages "
                 "(%llu -> %llu)\n",
                 (unsigned long long)plain.client_msgs,
                 (unsigned long long)packed.client_msgs);
    ok = false;
  }
  if (packed.instances_used >= plain.instances_used) {
    std::fprintf(stderr,
                 "GUARD FAILED: coalescing did not reduce instances "
                 "(%llu -> %llu)\n",
                 (unsigned long long)plain.instances_used,
                 (unsigned long long)packed.instances_used);
    ok = false;
  }
  if (ok) {
    std::printf(
        "\nGUARD OK: coalescing cut client messages %llu -> %llu and\n"
        "consensus instances %llu -> %llu for the same burst.\n",
        (unsigned long long)plain.client_msgs,
        (unsigned long long)packed.client_msgs,
        (unsigned long long)plain.instances_used,
        (unsigned long long)packed.instances_used);
  }
  return ok ? 0 : 1;
}
