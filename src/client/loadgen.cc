#include "client/loadgen.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/cluster_client.h"
#include "net/topology.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "rsm/history.h"
#include "shard/sharded_replica.h"
#include "sim/simulator.h"

namespace lls {

namespace {

/// Zipf-ish rank sampler over [0, keys): inverse-CDF over 1/(r+1)^s weights.
class KeyPicker {
 public:
  KeyPicker(int keys, double s) {
    if (s <= 0) return;  // uniform: cdf_ stays empty
    cdf_.reserve(static_cast<std::size_t>(keys));
    double total = 0;
    for (int r = 0; r < keys; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  int pick(Rng& rng, int keys) const {
    if (cdf_.empty()) return static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(keys)));
    double u = rng.next_double();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

LoadgenResult run_sim_loadgen(const LoadgenConfig& config) {
  const int total = config.cluster_n + config.clients;
  SimConfig sim_config;
  sim_config.n = total;
  sim_config.seed = config.seed;
  Simulator sim(sim_config, make_all_timely({500, 2 * kMillisecond}));

  KvReplicaConfig rc;
  rc.cluster_n = config.cluster_n;
  rc.max_batch = config.max_batch;
  rc.batch_flush_delay = config.batch_flush_delay;
  rc.admit_high_water = config.admit_high_water;
  LogConsensusConfig lc;
  lc.max_inflight = config.consensus_max_inflight;
  lc.lease.enabled = config.lease_reads;
  lc.lease.duration = config.lease_duration;
  lc.lease.clock_margin = config.lease_clock_margin;
  CeOmegaConfig oc;
  // The omega hint is advisory fast invalidation; 0 (leases off) disables it.
  oc.lease_duration = config.lease_reads ? config.lease_duration : 0;
  ShardedReplicaConfig sc;
  sc.shards = config.shards;
  sc.replica = rc;
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < static_cast<ProcessId>(config.cluster_n); ++p) {
    replicas.push_back(&sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{
               .omega = oc, .consensus = lc, .sharded = sc}));
  }

  ClusterClientConfig cc;
  cc.cluster_n = config.cluster_n;
  cc.window = config.open_loop
                  ? 4096  // open loop: queueing is the experiment
                  : static_cast<std::size_t>(config.closed_outstanding);
  cc.attempt_timeout = config.attempt_timeout;
  cc.request_deadline = config.request_deadline;
  cc.shards = config.shards;
  cc.coalesce = config.coalesce;
  cc.lease_reads = config.lease_reads;
  std::vector<ClusterClient*> clients;
  for (int c = 0; c < config.clients; ++c) {
    clients.push_back(&sim.emplace_actor<ClusterClient>(
        static_cast<ProcessId>(config.cluster_n + c), cc));
  }

  const TimePoint load_end = config.start + config.duration;
  const TimePoint measure_from = config.start + config.warmup;
  const KeyPicker picker(config.keys, config.zipf);

  // Observability: client latency streams into the plane's registry (so it
  // lands in the exported snapshot alongside the consensus decide-latency
  // histogram); the span tracker closes election-stabilization spans and the
  // tracer retains the control-plane story for the JSONL artifact.
  obs::Histogram& latency_ms =
      sim.plane().registry().histogram("client_latency_ms");
  obs::Histogram& read_latency_ms =
      sim.plane().registry().histogram("client_read_latency_ms");
  obs::Histogram& write_latency_ms =
      sim.plane().registry().histogram("client_write_latency_ms");
  // Per-shard breakdown: measured ops and latency per key-hash partition,
  // classified client-side with the same ShardMap the cluster uses.
  const int shard_count = config.shards;
  const ShardMap route_map(shard_count);
  std::vector<std::uint64_t> shard_acked(
      static_cast<std::size_t>(shard_count), 0);
  std::vector<obs::Histogram*> shard_latency;
  shard_latency.reserve(static_cast<std::size_t>(shard_count));
  for (int g = 0; g < shard_count; ++g) {
    shard_latency.push_back(&sim.plane().registry().histogram(
        "client_latency_ms_shard" + std::to_string(g)));
  }
  obs::ElectionSpanTracker election_spans(sim.plane(), config.cluster_n);
  std::unique_ptr<obs::RingTracer> tracer;
  if (!config.artifacts_prefix.empty()) {
    // Election/epoch story only: per-op events (decide/apply/request/reply)
    // would evict the handful of span boundaries from the ring, and their
    // aggregate lives in the histograms anyway.
    const obs::EventMask story =
        obs::mask_of(obs::EventType::kLeaderChange) |
        obs::mask_of(obs::EventType::kCrash) |
        obs::mask_of(obs::EventType::kRecover) |
        obs::mask_of(obs::EventType::kStall) |
        obs::mask_of(obs::EventType::kNemesisFault) |
        obs::mask_of(obs::EventType::kEpochStart) |
        obs::mask_of(obs::EventType::kEpochEnd) |
        obs::mask_of(obs::EventType::kSpanBegin) |
        obs::mask_of(obs::EventType::kSpanEnd);
    tracer = std::make_unique<obs::RingTracer>(sim.plane().bus(), 65536, story);
  }
  std::uint64_t measured_acked = 0;
  std::uint64_t measured_reads = 0;
  std::uint64_t measured_writes = 0;
  std::vector<std::string> acked_tokens;   // verify mode: acked appends
  std::uint64_t write_counter = 0;

  // History recording: invocations streamed at submit, responses as they
  // complete; timed-out ops stay pending in the file.
  HistoryWriter hist;
  if (!config.hist_path.empty()) {
    HistoryMeta meta;
    meta.source = "lls_loadgen/sim";
    meta.seed = config.seed;
    hist.open(config.hist_path, meta);
  }

  // One request per call; in closed-loop mode the completion callback
  // re-invokes it, keeping each client's window full until load_end.
  auto submit_one = std::make_shared<std::function<void(int)>>();
  *submit_one = [&, submit_one](int ci) {
    Rng& rng = sim.rng();
    ClusterClient& client = *clients[static_cast<std::size_t>(ci)];
    std::string key = "k" + std::to_string(picker.pick(rng, config.keys));
    const bool write = rng.chance(config.write_ratio);
    std::string token;
    if (write && config.verify) {
      token = std::to_string(config.cluster_n + ci) + "." +
              std::to_string(++write_counter) + ";";
    }
    // The op id is known only after submit() assigns the session seq; the
    // shared slot lets the completion callback (which cannot fire before
    // this function returns — the simulator is single-threaded) find it.
    auto hist_id = hist.is_open() ? std::make_shared<std::uint64_t>(0)
                                  : std::shared_ptr<std::uint64_t>();
    auto cb = [&, submit_one, ci, token, hist_id](const ClientCompletion& done) {
      if (!done.timed_out) {
        if (hist_id) hist.respond(*hist_id, done.completed, done.result);
        if (done.invoked >= measure_from && done.invoked < load_end) {
          ++measured_acked;
          const double ms =
              static_cast<double>(done.completed - done.invoked) /
              static_cast<double>(kMillisecond);
          latency_ms.record(ms);
          if (done.cmd.op == KvOp::kGet) {
            ++measured_reads;
            read_latency_ms.record(ms);
          } else {
            ++measured_writes;
            write_latency_ms.record(ms);
          }
          const ShardId g = route_map.shard_of(done.cmd.key);
          ++shard_acked[g];
          shard_latency[g]->record(ms);
        }
        if (!token.empty()) acked_tokens.push_back(token);
      }
      if (!config.open_loop && sim.now() < load_end) (*submit_one)(ci);
    };
    const KvOp op = write ? KvOp::kAppend : KvOp::kGet;
    std::string value =
        write ? (config.verify ? token : std::string(config.value_size, 'x'))
              : std::string();
    std::uint64_t seq =
        write ? client.submit(op, key, value, "", std::move(cb))
              : client.get(key, std::move(cb));
    if (hist_id) {
      Command cmd;
      cmd.origin = static_cast<ProcessId>(config.cluster_n + ci);
      cmd.seq = seq;
      cmd.op = op;
      cmd.key = std::move(key);
      cmd.value = std::move(value);
      *hist_id = hist.invoke(cmd, sim.now());
    }
  };

  // Arrival process.
  if (config.open_loop) {
    const auto gap = static_cast<Duration>(
        static_cast<double>(kSecond) / config.open_rate);
    for (int c = 0; c < config.clients; ++c) {
      // Stagger client start within one gap so arrivals interleave.
      TimePoint first = config.start + (gap * c) / config.clients;
      sim.schedule_every(first, gap, [&, submit_one, c]() {
        if (sim.now() >= load_end) return false;
        (*submit_one)(c);
        return true;
      });
    }
  } else {
    sim.schedule(config.start, [&, submit_one]() {
      for (int c = 0; c < config.clients; ++c) {
        for (int k = 0; k < config.closed_outstanding; ++k) (*submit_one)(c);
      }
    });
  }

  // Leader assassination: kill whoever the (alive) cluster trusts.
  LoadgenResult result;
  if (config.crash_leader_at > 0) {
    sim.schedule(config.crash_leader_at, [&]() {
      for (ProcessId p = 0; p < static_cast<ProcessId>(config.cluster_n);
           ++p) {
        if (!sim.alive(p)) continue;
        ProcessId leader = replicas[p]->omega().leader();
        if (leader != kNoProcess &&
            leader < static_cast<ProcessId>(config.cluster_n) &&
            sim.alive(leader)) {
          result.crashed = leader;
          sim.crash_now(leader);
        }
        break;
      }
    });
  }

  sim.start();
  sim.run_until(load_end);
  // Drain: run until every client is idle (or give up at the deadline).
  const TimePoint drain_deadline = load_end + config.drain;
  TimePoint drained_at = drain_deadline;
  while (sim.now() < drain_deadline) {
    bool idle = true;
    for (auto* c : clients) idle = idle && c->inflight() == 0 && c->queued() == 0;
    if (idle) {
      drained_at = sim.now();
      result.drained = true;
      break;
    }
    sim.run_for(20 * kMillisecond);
  }
  // Settle: clients going idle only means the LEADER applied and replied;
  // the idle-tail DECIDEs to the followers may still be in flight, and a
  // follower that missed them is caught up only after a stalled retry
  // period. Run past a few retry periods so the end-of-run audit compares
  // converged stores.
  if (result.drained) sim.run_for(100 * kMillisecond);

  // The closed-loop closure captures its own shared_ptr; break the cycle.
  *submit_one = nullptr;
  hist.close();

  // Roll up client counters.
  for (auto* c : clients) {
    result.submitted += c->session().issued();
    result.acked += c->acked();
    result.timed_out += c->timed_out();
    result.retries += c->retries();
    result.redirects += c->redirects();
    result.busy_replies += c->busy_replies();
    result.target_rotations += c->target_rotations();
    result.client_batches += c->batches_sent();
    result.client_batched_requests += c->batched_requests();
  }
  result.p50_ms = latency_ms.percentile(50);
  result.p90_ms = latency_ms.percentile(90);
  result.p99_ms = latency_ms.percentile(99);
  result.mean_ms = latency_ms.mean();
  result.max_ms = latency_ms.max();
  const double window_s =
      static_cast<double>(load_end - measure_from) / kSecond;
  result.throughput =
      window_s > 0 ? static_cast<double>(measured_acked) / window_s : 0;
  auto fill_op = [&](LoadgenResult::OpStats& op, obs::Histogram& h,
                     std::uint64_t acked) {
    op.acked = acked;
    op.throughput = window_s > 0 ? static_cast<double>(acked) / window_s : 0;
    op.p50_ms = h.percentile(50);
    op.p90_ms = h.percentile(90);
    op.p99_ms = h.percentile(99);
    op.mean_ms = h.mean();
    op.max_ms = h.max();
  };
  fill_op(result.reads, read_latency_ms, measured_reads);
  fill_op(result.writes, write_latency_ms, measured_writes);
  result.shard_stats.resize(static_cast<std::size_t>(shard_count));
  std::uint64_t max_ops = 0;
  for (int g = 0; g < shard_count; ++g) {
    auto& s = result.shard_stats[static_cast<std::size_t>(g)];
    s.acked = shard_acked[static_cast<std::size_t>(g)];
    s.throughput = window_s > 0 ? static_cast<double>(s.acked) / window_s : 0;
    s.p50_ms = shard_latency[static_cast<std::size_t>(g)]->percentile(50);
    s.p99_ms = shard_latency[static_cast<std::size_t>(g)]->percentile(99);
    max_ops = std::max(max_ops, s.acked);
  }
  if (measured_acked > 0) {
    const double mean_ops = static_cast<double>(measured_acked) /
                            static_cast<double>(shard_count);
    result.shard_imbalance = static_cast<double>(max_ops) / mean_ops;
  }

  const NetStats& stats = *NetStats::from(sim.plane().registry());
  result.omega_msgs =
      stats.sent_by_class(NetStats::type_class(msg_type::kCeOmegaAlive));
  result.consensus_msgs =
      stats.sent_by_class(NetStats::type_class(msg_type::kConsensusBase));
  result.client_msgs =
      stats.sent_by_class(NetStats::type_class(msg_type::kRsmBase));
  if (result.acked > 0) {
    result.consensus_msgs_per_cmd = static_cast<double>(result.consensus_msgs) /
                                    static_cast<double>(result.acked);
    result.total_msgs_per_cmd =
        static_cast<double>(result.consensus_msgs + result.client_msgs) /
        static_cast<double>(result.acked);
  }

  // Decisions: per group, the most advanced contiguous decided prefix any
  // alive replica knows; summed over groups. Includes no-op fillers, so it
  // measures log motion rather than client acks.
  std::vector<Instance> group_decided(static_cast<std::size_t>(shard_count), 0);
  for (ProcessId p = 0; p < static_cast<ProcessId>(config.cluster_n); ++p) {
    if (!sim.alive(p)) continue;
    const ShardedKvReplica& r = *replicas[p];
    result.duplicates_suppressed += r.duplicates_suppressed();
    result.cached_replies += r.cached_replies_sent();
    result.busy_sent += r.busy_sent();
    result.envelopes_rejected += r.envelopes_rejected();
    result.reads_local += r.reads_local();
    result.reads_ordered += r.reads_ordered();
    for (int g = 0; g < shard_count; ++g) {
      const LogConsensus& cons = r.group(g).consensus();
      result.dup_proposals_suppressed += cons.dup_proposals_suppressed();
      group_decided[static_cast<std::size_t>(g)] = std::max(
          group_decided[static_cast<std::size_t>(g)], cons.first_unknown());
    }
  }
  for (Instance d : group_decided) result.consensus_decisions += d;
  // Per-op-class message economy. Consensus traffic belongs to ordered
  // commands; a lease-served read costs zero consensus messages by
  // construction. The replicas' own admission counters give the
  // local/ordered split for reads (with leases off every read is ordered).
  if (result.reads_local + result.reads_ordered > 0) {
    result.lease_read_ratio =
        static_cast<double>(result.reads_local) /
        static_cast<double>(result.reads_local + result.reads_ordered);
  }
  const double ordered_reads =
      static_cast<double>(result.reads.acked) * (1.0 - result.lease_read_ratio);
  const double ordered_cmds =
      static_cast<double>(result.writes.acked) + ordered_reads;
  if (ordered_cmds > 0) {
    const double per_ordered =
        static_cast<double>(result.consensus_msgs) / ordered_cmds;
    result.writes.consensus_msgs_per_op = per_ordered;
    if (result.reads.acked > 0) {
      result.reads.consensus_msgs_per_op =
          per_ordered * ordered_reads / static_cast<double>(result.reads.acked);
    }
  }
  if (result.consensus_decisions > 0) {
    result.consensus_msgs_per_decision =
        static_cast<double>(result.consensus_msgs) /
        static_cast<double>(result.consensus_decisions);
  }

  // Exactly-once audit.
  if (config.verify) {
    auto fail = [&](std::string what) {
      result.verify_ok = false;
      result.verify_errors.push_back(std::move(what));
    };
    // Digests are compared per group: a sharded process holds M disjoint
    // stores, each of which must converge across replicas independently.
    std::vector<std::uint64_t> ref_digest(
        static_cast<std::size_t>(shard_count), 0);
    bool have_ref = false;
    for (ProcessId p = 0; p < static_cast<ProcessId>(config.cluster_n); ++p) {
      if (!sim.alive(p)) continue;
      std::vector<const KvStore*> stores;
      for (int g = 0; g < shard_count; ++g) {
        stores.push_back(&replicas[p]->group(g).store());
      }
      for (int g = 0; g < shard_count; ++g) {
        const std::uint64_t digest =
            stores[static_cast<std::size_t>(g)]->digest();
        if (!have_ref) {
          ref_digest[static_cast<std::size_t>(g)] = digest;
        } else if (digest != ref_digest[static_cast<std::size_t>(g)]) {
          fail("replica " + std::to_string(p) + " shard " + std::to_string(g) +
               " store digest diverges from first alive replica");
        }
      }
      have_ref = true;
      // Token census over the process's whole keyspace (all groups merged):
      // every value is a concatenation of ';'-terminated tokens (verify-mode
      // writes are appends of exactly one token).
      std::unordered_map<std::string, int> census;
      for (const KvStore* store : stores) {
        for (const auto& [key, value] : store->data()) {
          std::size_t begin = 0;
          while (begin < value.size()) {
            std::size_t end = value.find(';', begin);
            if (end == std::string::npos) {
              fail("replica " + std::to_string(p) + " key " + key +
                   " holds a malformed token tail");
              break;
            }
            ++census[value.substr(begin, end - begin + 1)];
            begin = end + 1;
          }
        }
      }
      for (const auto& [token, count] : census) {
        if (count > 1) {
          fail("replica " + std::to_string(p) + ": token " + token +
               " applied " + std::to_string(count) + " times (duplicate)");
        }
      }
      for (const std::string& token : acked_tokens) {
        if (census.find(token) == census.end()) {
          fail("replica " + std::to_string(p) + ": acked token " + token +
               " missing (lost write)");
        }
      }
    }
    if (!have_ref) fail("no alive replica to audit");
  }

  // Artifact dump: the whole plane as Prometheus text and JSON, plus the
  // retained control-plane trace.
  if (!config.artifacts_prefix.empty()) {
    obs::write_text_file(config.artifacts_prefix + ".prom",
                         obs::render_prometheus(sim.plane().registry()));
    obs::write_text_file(config.artifacts_prefix + ".json",
                         obs::render_json(sim.plane().registry()));
    tracer->dump_jsonl_file(config.artifacts_prefix + ".trace.jsonl");
  }

  (void)drained_at;
  return result;
}

}  // namespace lls
