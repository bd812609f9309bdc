// sim-steady and sim-failover: n=5 replicas (the M=1 sharded host) and 64
// ClusterClients in the deterministic simulator, all-timely links with
// 0.5-2 ms delay, leases on, 64 uniform keys, 16 B values, 50% writes.
//
// One repetition builds the cluster, loads it, drains, then measures a
// quiet window. Its counts are a pure function of the seed, so the run
// repeats the same seed until the time budget is spent: every repetition
// must reproduce the first one's counts exactly (traced ones included —
// the probes must not change behaviour), and the wall-clock figures are
// the median over repetitions.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "client/cluster_client.h"
#include "layers.h"
#include "load.h"
#include "net/topology.h"
#include "probe.h"
#include "shard/sharded_replica.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using lls::Duration;
using lls::kMillisecond;
using lls::kSecond;
using lls::TimePoint;

constexpr int kReplicas = 5;
constexpr int kClients = 64;
constexpr int kKeys = 64;
constexpr double kWriteRatio = 0.5;
constexpr Duration kLease = 200 * kMillisecond;
constexpr TimePoint kLoadStart = 100 * kMillisecond;
constexpr Duration kWarmup = 500 * kMillisecond;
constexpr Duration kDrainMax = 20 * kSecond;
constexpr Duration kSettle = 200 * kMillisecond;
constexpr Duration kQuiet = 1 * kSecond;
/// Virtual-time granularity of the CPU accounting.
constexpr Duration kChunk = 50 * kMillisecond;
/// 69 processes: keep the span file to ~70k handler spans.
constexpr ProbeLimits kProbeLimits{.spans = 1000, .span_every = 512};
/// Spacing of the no-fault reference instants for unavail_ms.
constexpr Duration kInstantEvery = 10 * kMillisecond;

struct Shape {
  bool open_loop = false;
  double rate = 0;         ///< open loop: aggregate offered ops/s
  Duration load = 0;       ///< measured load window after warmup
  Duration crash_at = 0;   ///< into the measured window; 0 = no crash
};

Shape shape_of(const std::string& workload) {
  if (workload == "sim-steady") return {false, 0, 3 * kSecond, 0};
  // About half of sim-steady's ~16.9k ops/s; the leader dies halfway.
  if (workload == "sim-failover") {
    return {true, 8400, 3 * kSecond, 1500 * kMillisecond};
  }
  throw std::invalid_argument("unknown sim workload " + workload);
}

/// Everything one repetition measured.
struct Rep {
  // Deterministic counts (compared across repetitions).
  std::uint64_t attempted = 0, acked = 0, events = 0;
  std::uint64_t msgs = 0, bytes = 0;  ///< load start .. drained
  std::uint64_t quiet_msgs = 0;
  std::uint64_t decisions = 0, reads_local = 0, reads_ordered = 0;
  std::uint64_t retries = 0, redirects = 0, busy_replies = 0;
  std::uint64_t batched_requests = 0, leader_changes = 0;
  std::uint64_t digest = 0;
  TimePoint crash_time = 0, reelected_at = 0, drained_at = 0;
  OpLog ops;

  // Wall-clock figures. chunk_cpu holds the process CPU time of the set-up,
  // of every kChunk of virtual time, and of the audit, in order.
  double setup_s = 0, loop_s = 0;
  std::vector<double> chunk_cpu;
  std::uint64_t allocs = 0;

  // Traced repetition only.
  std::vector<ProbeStats> probes;
  ProbeTotals at_load_start, at_drained;
  double pool_hit_ratio = 0;  ///< the simulator's shared frame pool
  std::uint64_t consensus_at_crash = 0, consensus_at_end = 0;
  TimePoint end_time = 0;

  std::vector<std::string> errors;

  [[nodiscard]] bool same_counts(const Rep& o) const {
    return attempted == o.attempted && acked == o.acked &&
           events == o.events && msgs == o.msgs && bytes == o.bytes &&
           quiet_msgs == o.quiet_msgs && decisions == o.decisions &&
           reads_local == o.reads_local && retries == o.retries &&
           leader_changes == o.leader_changes && digest == o.digest &&
           chunk_cpu.size() == o.chunk_cpu.size() &&
           ops.completed == o.ops.completed;
  }
};

Rep run_rep(const Shape& shape, std::uint64_t seed, bool traced) {
  Rep rep;
  const double wall0 = wall_seconds();
  const double cpu0 = cpu_seconds();
  const std::uint64_t alloc0 = allocs();
  const std::uint64_t epoch_ns = wall_ns();
  const int total = kReplicas + kClients;

  lls::SimConfig sim_config;
  sim_config.n = total;
  sim_config.seed = seed;
  lls::Simulator sim(sim_config,
                     lls::make_all_timely({500, 2 * kMillisecond}));
  if (traced) rep.probes.resize(static_cast<std::size_t>(total));
  auto host = [&](ProcessId p, std::unique_ptr<Actor> actor) {
    if (traced) {
      actor = std::make_unique<ProbeActor>(std::move(actor), rep.probes[p],
                                           epoch_ns, kProbeLimits);
    }
    sim.set_actor(p, std::move(actor));
  };

  lls::KvReplicaConfig rc;
  rc.cluster_n = kReplicas;
  lls::LogConsensusConfig lc;
  lc.lease.enabled = true;
  lc.lease.duration = kLease;
  lls::CeOmegaConfig oc;
  oc.lease_duration = kLease;
  lls::ShardedReplicaConfig shc;
  shc.shards = 1;
  shc.replica = rc;
  std::vector<lls::ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    auto r = std::make_unique<lls::ShardedKvReplica>(
        lls::ShardedKvReplica::Options{.omega = oc, .consensus = lc,
                                       .sharded = shc});
    replicas.push_back(r.get());
    host(p, std::move(r));
  }
  lls::ClusterClientConfig cc;
  cc.cluster_n = kReplicas;
  cc.window = shape.open_loop ? 4096 : 1;
  cc.shards = 1;
  cc.lease_reads = true;
  std::vector<lls::ClusterClient*> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<lls::ClusterClient>(cc);
    clients.push_back(client.get());
    host(static_cast<ProcessId>(kReplicas + c), std::move(client));
  }
  // Leader views per replica, for leader_changes and reelect time.
  std::vector<ProcessId> view(kReplicas, lls::kNoProcess);
  bool loaded = false;
  auto sub = sim.plane().bus().subscribe(
      lls::obs::mask_of(lls::obs::EventType::kLeaderChange),
      [&](const lls::obs::Event& e) {
        if (e.process >= kReplicas) return;
        view[e.process] = e.peer;
        if (loaded) ++rep.leader_changes;
        if (rep.crash_time == 0 || rep.reelected_at != 0) return;
        ProcessId agreed = lls::kNoProcess;
        for (ProcessId p = 0; p < kReplicas; ++p) {
          if (!sim.alive(p)) continue;
          if (agreed == lls::kNoProcess) agreed = view[p];
          if (view[p] != agreed) return;
        }
        if (agreed != lls::kNoProcess && agreed < kReplicas &&
            sim.alive(agreed)) {
          rep.reelected_at = e.t;
        }
      });

  const TimePoint measure_from = kLoadStart + kWarmup;
  const TimePoint load_end = measure_from + shape.load;
  std::function<void(int)> submit = [&](int ci) {
    lls::Rng& rng = sim.rng();
    const auto k = static_cast<std::uint16_t>(rng.next_below(kKeys));
    const bool write = rng.chance(kWriteRatio);
    const std::size_t idx = rep.ops.add(sim.now(), write, k);
    auto cb = [&, ci, idx](const lls::ClientCompletion& done) {
      if (!done.timed_out) {
        rep.ops.completed[idx] = done.completed;
        if (rep.setup_s == 0) rep.setup_s = wall_seconds() - wall0;
      }
      if (!shape.open_loop && sim.now() < load_end) submit(ci);
    };
    lls::ClusterClient& client = *clients[static_cast<std::size_t>(ci)];
    const auto origin = static_cast<ProcessId>(kReplicas + ci);
    // A write stores its own request id: the session's next seq.
    const std::uint64_t next = client.session().issued() + 1;
    const std::uint64_t seq =
        write ? client.submit(lls::KvOp::kPut, key_name(k),
                              put_value(origin, next), "", cb)
              : client.get(key_name(k), cb);
    if (seq != next) throw std::logic_error("unexpected session seq");
    rep.ops.origin[idx] = origin;
    rep.ops.seq[idx] = seq;
  };

  sim.schedule(kLoadStart, [&]() {
    loaded = true;
    rep.msgs = sim.network().stats().sent_total();
    rep.bytes = sim.network().stats().bytes_total();
    if (traced) rep.at_load_start = probe_totals(rep.probes);
  });
  if (shape.open_loop) {
    const auto gap = static_cast<Duration>(
        static_cast<double>(kClients) * static_cast<double>(kSecond) /
        shape.rate);
    for (int c = 0; c < kClients; ++c) {
      sim.schedule_every(kLoadStart + (gap * c) / kClients, gap, [&, c]() {
        if (sim.now() >= load_end) return false;
        submit(c);
        return true;
      });
    }
  } else {
    sim.schedule(kLoadStart, [&]() {
      for (int c = 0; c < kClients; ++c) submit(c);
    });
  }
  if (shape.crash_at > 0) {
    sim.schedule(measure_from + shape.crash_at, [&]() {
      ProcessId leader = replicas[0]->omega().leader();
      for (ProcessId p = 0; p < kReplicas && !sim.alive(leader); ++p) {
        leader = replicas[p]->omega().leader();
      }
      if (leader >= kReplicas || !sim.alive(leader)) {
        rep.errors.push_back("no live leader to crash");
        return;
      }
      rep.crash_time = sim.now();
      sim.crash_now(leader);
      if (traced) {
        rep.consensus_at_crash = probe_totals(rep.probes)
                                     .msgs[static_cast<std::size_t>(Layer::kConsensus)];
      }
    });
  }

  double mark = cpu0;
  auto close_chunk = [&]() {
    const double now = cpu_seconds();
    rep.chunk_cpu.push_back(now - mark);
    mark = now;
  };
  auto advance_to = [&](TimePoint until) {
    while (sim.now() < until) {
      sim.run_until(std::min(until, sim.now() + kChunk));
      close_chunk();
    }
  };
  close_chunk();  // construction
  const double loop0 = wall_seconds();
  sim.start();
  advance_to(load_end);
  while (sim.now() < load_end + kDrainMax) {
    bool idle = true;
    for (const auto* c : clients) {
      idle = idle && c->inflight() == 0 && c->queued() == 0;
    }
    if (idle) break;
    advance_to(sim.now() + 20 * kMillisecond);
  }
  rep.drained_at = sim.now();
  rep.msgs = sim.network().stats().sent_total() - rep.msgs;
  rep.bytes = sim.network().stats().bytes_total() - rep.bytes;
  for (const auto* r : replicas) {
    rep.decisions = std::max<std::uint64_t>(
        rep.decisions, r->group(0).consensus().first_unknown());
  }
  if (traced) rep.at_drained = probe_totals(rep.probes);
  advance_to(sim.now() + kSettle);
  const std::uint64_t quiet0 = sim.network().stats().sent_total();
  advance_to(sim.now() + kQuiet);
  rep.quiet_msgs = sim.network().stats().sent_total() - quiet0;
  rep.end_time = sim.now();
  if (traced) {
    rep.consensus_at_end =
        probe_totals(rep.probes).msgs[static_cast<std::size_t>(Layer::kConsensus)];
  }
  rep.loop_s = wall_seconds() - loop0;
  rep.events = sim.events_executed();
  if (traced) {
    // The pool dies with the simulator: read it now and drop the pointers.
    const lls::BufferPool& pool = *rep.probes.front().pool;
    rep.pool_hit_ratio = static_cast<double>(pool.hits()) /
                         static_cast<double>(pool.hits() + pool.misses());
    for (ProbeStats& p : rep.probes) p.pool = nullptr;
  }
  sub.reset();

  rep.attempted = rep.ops.size();
  rep.acked = rep.ops.acked();
  for (const auto* c : clients) {
    rep.retries += c->retries();
    rep.redirects += c->redirects();
    rep.batched_requests += c->batched_requests();
  }
  std::vector<const lls::ShardedKvReplica*> alive;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    const auto* r = replicas[p];
    rep.busy_replies += r->busy_sent();
    rep.reads_local += r->reads_local();
    rep.reads_ordered += r->reads_ordered();
    if (sim.alive(p)) alive.push_back(r);
  }
  rep.digest = alive.empty() ? 0 : alive.front()->group(0).store().digest();
  Report audit;
  audit_replicas(audit, alive, rep.ops);
  for (auto& e : audit.errors) rep.errors.push_back(std::move(e));

  close_chunk();  // audit
  rep.allocs = allocs() - alloc0;
  return rep;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts this (single-threaded) process to one CPU; cpu < 0 restores
/// the whole `allowed` set.
void run_on(int cpu, const std::vector<int>& allowed) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  } else {
    for (int c : allowed) CPU_SET(c, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

void write_spans(const std::string& path, const Rep& rep) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  write_request_spans(out, rep.ops);
  write_handler_spans(out, rep.probes);
  std::fclose(out);
}

}  // namespace

Report run_sim_workload(const Options& opt) {
  const Shape shape = shape_of(opt.workload);
  Report report;
  report.param("replicas", kReplicas);
  report.param("clients", kClients);
  report.param("loop", shape.open_loop ? "open" : "closed, 1 outstanding");
  if (shape.open_loop) report.param("offered_ops_per_s", shape.rate);
  report.param("keys", kKeys);
  report.param("value_bytes", static_cast<double>(put_value(0, 1).size()));
  report.param("write_ratio", kWriteRatio);
  report.param("leases", "on");
  report.param("link_delay_ms", "0.5-2 uniform, all timely");
  report.param("warmup_ms", static_cast<double>(kWarmup / kMillisecond));
  report.param("load_ms", static_cast<double>(shape.load / kMillisecond));
  report.param("crash_leader_at_ms",
               static_cast<double>(shape.crash_at / kMillisecond));
  report.param("quiet_ms", static_cast<double>(kQuiet / kMillisecond));

  // Repetitions of the same seed: untraced ones give the end-to-end wall
  // figures; in a traced invocation they alternate with traced ones, whose
  // difference is the tracing overhead.
  const double deadline = wall_seconds() + opt.seconds;
  std::vector<Rep> untraced, traced;
  // On a shared host the CPUs do not run at the same speed, and which is
  // slow changes over time; each repetition runs on the next allowed CPU,
  // so the per-chunk minimum below finds the cost on the fastest one.
  const std::vector<int> cpus = allowed_cpus();
  std::size_t next_cpu = 0;
  auto pin_next = [&]() {
    if (!cpus.empty()) run_on(cpus[next_cpu++ % cpus.size()], cpus);
  };
  pin_next();
  Rep first = run_rep(shape, opt.seed, false);
  untraced.push_back(first);
  untraced.back().ops = {};
  while (wall_seconds() < deadline || untraced.size() + traced.size() < 2 ||
         (opt.trace && traced.empty())) {
    const bool trace_this = opt.trace && traced.size() < untraced.size();
    // A traced repetition stays on its untraced partner's CPU, so the
    // overhead ratio compares like with like.
    if (!trace_this) pin_next();
    Rep rep = run_rep(shape, opt.seed, trace_this);
    if (!rep.same_counts(first)) {
      report.fail(std::string("nondeterministic: a repeated ") +
                  (trace_this ? "traced " : "") +
                  "run of the same seed gave different counts");
    }
    if (!trace_this) rep.ops = {};
    (trace_this ? traced : untraced).push_back(std::move(rep));
    if (untraced.size() + traced.size() >= 40) break;
  }
  if (!cpus.empty()) run_on(-1, cpus);
  for (const auto& e : first.errors) report.fail(e);

  const TimePoint measure_from = kLoadStart + kWarmup;
  const TimePoint load_end = measure_from + shape.load;
  const double acked = static_cast<double>(first.acked);
  report.attempted = first.attempted;
  report.failed = first.attempted - first.acked;

  auto med = [](const std::vector<Rep>& reps, auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r));
    return median(v);
  };
  // Every repetition runs the same events in the same chunks of virtual
  // time, so a chunk's CPU time differs between repetitions only by host
  // interference. The work's own cost is the sum over chunks of each
  // chunk's fastest repetition.
  auto fastest = [&](const std::vector<Rep>& reps) {
    std::vector<double> best = reps.front().chunk_cpu;
    for (const Rep& r : reps) {
      for (std::size_t i = 0; i < best.size() && i < r.chunk_cpu.size(); ++i) {
        best[i] = std::min(best[i], r.chunk_cpu[i]);
      }
    }
    double total = 0;
    for (double c : best) total += c;
    return 1e6 * per(total, acked);
  };
  const double cpu_us_per_op = fastest(untraced);

  // End-to-end.
  const LatencySummary lat = summarize(first.ops, measure_from, load_end);
  std::vector<TimePoint> instants;
  if (shape.crash_at > 0) {
    instants.push_back(first.crash_time);
  } else {
    for (TimePoint t = measure_from; t < load_end; t += kInstantEvery) {
      instants.push_back(t);
    }
  }
  report.e2e("ops_per_s", lat.ops_per_s, "ops/s");
  report.e2e("p50_ms", lat.p50_ms, "ms");
  report.e2e("p99_ms", lat.p99_ms, "ms");
  report.e2e("read_p99_ms", lat.read_p99_ms, "ms");
  report.e2e("write_p99_ms", lat.write_p99_ms, "ms");
  report.e2e("unavail_ms", unavail_ms(first.ops, instants), "ms");
  report.e2e("msgs_per_op", per(static_cast<double>(first.msgs), acked),
             "msgs/op");
  report.e2e("bytes_per_op", per(static_cast<double>(first.bytes), acked),
             "B/op");
  report.e2e("quiet_msgs_per_s",
             static_cast<double>(first.quiet_msgs) / (kQuiet / 1e6), "msgs/s");
  report.e2e("setup_s", med(untraced, [](const Rep& r) { return r.setup_s; }),
             "s");
  report.e2e("rss_mb", peak_rss_mb(), "MiB");

  // Printed but not a result metric: on a shared VM the host's speed drifts
  // by more than any regression bound between sets of runs.
  report.note("cpu_us_per_op", cpu_us_per_op, "us/op");
  note_samples(report, lat);
  report.note("fail_ratio", per(static_cast<double>(report.failed),
                                static_cast<double>(report.attempted)),
              "ratio");
  report.note("quiet_floor_msgs_per_s", (kReplicas - 1) / 0.010, "msgs/s");
  report.note("repetitions_untraced", static_cast<double>(untraced.size()),
              "count");
  report.note("repetitions_traced", static_cast<double>(traced.size()),
              "count");
  report.note("drained_after_load_ms",
              static_cast<double>(first.drained_at - load_end) / 1000.0, "ms");

  if (!opt.trace) return report;

  // Per-layer, from the first traced repetition.
  const Rep& t = traced.front();
  std::uint64_t handler_ns = 0;
  std::size_t leader = 0;
  std::uint64_t leader_ns = 0;
  for (std::size_t p = 0; p < t.probes.size(); ++p) {
    const ProbeStats& s = t.probes[p];
    std::uint64_t node_ns = 0;
    for (std::uint64_t v : s.handler_ns) node_ns += v;
    handler_ns += node_ns;
    if (p < kReplicas && node_ns > leader_ns) {
      leader_ns = node_ns;
      leader = p;
    }
  }
  const double post_crash_s =
      static_cast<double>(t.end_time - t.crash_time) / 1e6;

  LayerFigures f;
  add_probe_figures(f, t.probes, t.at_drained - t.at_load_start, leader,
                    {.acked = acked,
                     .decisions = static_cast<double>(t.decisions),
                     .reads_local = static_cast<double>(t.reads_local),
                     .reads_ordered = static_cast<double>(t.reads_ordered),
                     .retries = static_cast<double>(t.retries),
                     .redirects = static_cast<double>(t.redirects),
                     .batched_requests = static_cast<double>(t.batched_requests),
                     .busy_replies = static_cast<double>(t.busy_replies)});
  f.sim_events_per_op = per(static_cast<double>(t.events), acked);
  f.sim_self_ns_per_event =
      per(t.loop_s * 1e9 - static_cast<double>(handler_ns),
          static_cast<double>(t.events));
  f.allocs_per_op = med(untraced, [&](const Rep& r) {
    return per(static_cast<double>(r.allocs), acked);
  });
  f.pool_hit_ratio = t.pool_hit_ratio;
  f.leader_changes = static_cast<double>(t.leader_changes);
  if (t.crash_time > 0) {
    f.reelect_ms = t.reelected_at > 0
                       ? static_cast<double>(t.reelected_at - t.crash_time) / 1000.0
                       : 0;
    f.post_crash_msgs_per_s =
        per(static_cast<double>(t.consensus_at_end - t.consensus_at_crash),
            post_crash_s);
  }
  f.overhead_ratio = per(fastest(traced), cpu_us_per_op);
  f.emit(report, false);
  report.note("consensus.msgs_per_decision_floor", 2.0 * (kReplicas - 1),
              "msgs/decision");
  write_spans(opt.trace_out, t);
  return report;
}

}  // namespace perfbench
