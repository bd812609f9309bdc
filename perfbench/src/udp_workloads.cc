// udp-ladder, udp-steady and udp-closed: three replica UdpNodes (the M=1
// sharded host) and one client UdpNode in this process on loopback — four
// event-loop threads. The client node hosts a LadderClient: a ClusterClient
// plus a load generator on the client's own loop (open loop driven by
// timers, or a closed loop).
// udp-ladder steps through a fixed ladder of offered rates from well below
// the knee to above it; udp-steady holds the ladder's reference step for the
// whole run; udp-closed is the shape the UDP freeze was reported on (closed
// loop, 4 in flight, leases off). Same mix as the sims (64 uniform keys,
// 16 B values, 50% writes), no injected faults, one client session for the
// whole run.
//
// The main thread only sets up, steps the ladder and reads state through
// UdpNode::post, always with a timeout so a stalled loop cannot hang the
// run: it shows up as unfinished ops instead.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "client/cluster_client.h"
#include "layers.h"
#include "load.h"
#include "probe.h"
#include "runtime/udp_runtime.h"
#include "shard/sharded_replica.h"
#include "workloads.h"

namespace perfbench {

namespace {

using lls::Duration;
using lls::kMillisecond;
using lls::kSecond;
using lls::TimePoint;
using lls::UdpNode;

constexpr int kReplicas = 3;
constexpr int kNodes = kReplicas + 1;
constexpr ProcessId kClientId = kReplicas;
constexpr int kKeys = 64;
constexpr double kWriteRatio = 0.5;
constexpr Duration kLease = 200 * kMillisecond;
constexpr Duration kClockMargin = 5 * kMillisecond;
/// Offered rates (ops/s), low to high, each held for `weight` time units.
/// The reference step sits well below the knee and gives the latency,
/// traffic and CPU figures. The ladder stops after the first step that
/// fails (see step_passes): steps above the knee only pile onto a backlog
/// the cluster is already losing to.
struct Step {
  double rate;
  int weight;
};
struct Plan {
  std::vector<Step> steps;
  std::size_t reference;
  /// > 0: closed loop with this many ops in flight; the step rate is unused.
  int closed = 0;
  bool leases = true;
};
constexpr double kReferenceRate = 16000;

Plan plan_of(const std::string& workload) {
  if (workload == "udp-steady") return {{{kReferenceRate, 1}}, 0};
  if (workload == "udp-closed") return {{{0, 1}}, 0, 4, false};
  if (workload == "udp-ladder") {
    return {{{4000, 1},
             {kReferenceRate, 6},
             {32000, 1},
             {48000, 1},
             {56000, 1},
             {64000, 1},
             {72000, 1},
             {80000, 1},
             {88000, 1},
             {96000, 1},
             {112000, 1},
             {128000, 1}},
            1};
  }
  throw std::invalid_argument("unknown UDP workload " + workload);
}
/// In-flight cap of the client session; further submissions wait in the
/// client's own queue, so overload shows up as backlog and latency.
constexpr std::size_t kClientWindow = 256;
constexpr Duration kLatencyLimit = 50 * kMillisecond;
/// A step is cut short once its backlog exceeds this much of its arrivals:
/// it has failed already, and staying overloaded only deepens the backlog.
constexpr Duration kAbortBacklog = 100 * kMillisecond;
constexpr Duration kInstantEvery = 10 * kMillisecond;
constexpr int kSetups = 7;
/// Generator timer granularity: ops falling due within one tick are sent
/// together (the runtime's poll timeout is whole milliseconds, so finer
/// timers would spin the client loop).
constexpr Duration kGenTick = 2 * kMillisecond;
constexpr auto kDrainMax = std::chrono::seconds(5);
/// An undrained run whose client saw no completion for this long has
/// stopped making progress, which is a failure, not a slow run.
constexpr Duration kStalled = 2 * kSecond;
constexpr auto kQuiet = std::chrono::seconds(1);
constexpr auto kLoopTimeout = std::chrono::seconds(2);

/// ClusterClient plus a load generator on the same loop: open loop at a
/// rate, or a closed loop that resubmits from each completion.
class LadderClient final : public Actor {
 public:
  LadderClient(lls::ClusterClientConfig cc, std::uint64_t seed)
      : client_(cc), rng_(seed) {}

  void on_start(Runtime& rt) override {
    rt_ = &rt;
    client_.on_start(rt);
  }
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override {
    client_.on_message(rt, src, type, payload);
  }
  void on_timer(Runtime& rt, TimerId timer) override {
    if (timer == gen_timer_) {
      gen_timer_ = lls::kInvalidTimer;
      generate();
      return;
    }
    client_.on_timer(rt, timer);
  }

  // Loop-thread API (reached through UdpNode::post).
  void submit_now() { submit(rt_->now(), -1); }
  void start_step(int step, double rate, int closed, Duration length) {
    step_ = step;
    step_end_ = rt_->now() + length;
    step_start.push_back(rt_->now());
    closed_ = closed > 0;
    if (closed_) {
      for (int i = 0; i < closed; ++i) submit(rt_->now(), step_);
      return;
    }
    gap_us_ = 1e6 / rate;
    due_us_ = static_cast<double>(rt_->now());
    generate();
  }
  void stop_step() {
    step_end_ = rt_->now();
    if (gen_timer_ != lls::kInvalidTimer) rt_->cancel_timer(gen_timer_);
    gen_timer_ = lls::kInvalidTimer;
  }
  [[nodiscard]] std::size_t outstanding() const {
    return client_.inflight() + client_.queued();
  }
  [[nodiscard]] const lls::ClusterClient& client() const { return client_; }
  /// Time since the last completion (or since the client started).
  [[nodiscard]] Duration idle_for() const { return rt_->now() - last_done_; }

  OpLog ops;
  std::vector<int> op_step;  ///< ladder step per op; -1 = setup probe
  std::vector<TimePoint> step_start;
  std::vector<double> gen_late_us;

 private:
  void generate() {
    const TimePoint now = rt_->now();
    while (due_us_ < static_cast<double>(step_end_) &&
           due_us_ <= static_cast<double>(now)) {
      const auto due = static_cast<TimePoint>(due_us_);
      gen_late_us.push_back(static_cast<double>(now - due));
      submit(due, step_);
      due_us_ += gap_us_;
    }
    if (due_us_ < static_cast<double>(step_end_)) {
      const TimePoint next = static_cast<TimePoint>(due_us_);
      gen_timer_ = rt_->set_timer(std::max<Duration>(next - now, kGenTick));
    }
  }

  void submit(TimePoint due, int step) {
    const auto k = static_cast<std::uint16_t>(rng_.next_below(kKeys));
    const bool write = rng_.chance(kWriteRatio);
    const std::size_t idx = ops.add(due, write, k);
    op_step.push_back(step);
    auto cb = [this, idx](const lls::ClientCompletion& done) {
      if (!done.timed_out) {
        ops.completed[idx] = done.completed;
        last_done_ = done.completed;
      }
      if (closed_ && rt_->now() < step_end_) submit(rt_->now(), step_);
    };
    // A write stores its own request id: the session's next seq.
    const std::uint64_t next = client_.session().issued() + 1;
    const std::uint64_t seq =
        write ? client_.submit(lls::KvOp::kPut, key_name(k),
                               put_value(kClientId, next), "", cb)
              : client_.get(key_name(k), cb);
    if (seq != next) throw std::logic_error("unexpected session seq");
    ops.origin[idx] = kClientId;
    ops.seq[idx] = seq;
  }

  lls::ClusterClient client_;
  lls::Rng rng_;
  Runtime* rt_ = nullptr;
  TimerId gen_timer_ = lls::kInvalidTimer;
  int step_ = -1;
  double gap_us_ = 0;
  double due_us_ = 0;
  TimePoint step_end_ = 0;
  bool closed_ = false;
  TimePoint last_done_ = 0;
};

/// Runs fn on the node's loop and waits for its result; nullopt when the
/// loop did not answer within kLoopTimeout.
template <typename F>
auto on_loop(UdpNode& node, F fn) -> std::optional<decltype(fn())> {
  using T = decltype(fn());
  auto done = std::make_shared<std::promise<T>>();
  auto result = done->get_future();
  node.post([done, fn]() mutable { done->set_value(fn()); });
  if (result.wait_for(kLoopTimeout) != std::future_status::ready) {
    return std::nullopt;
  }
  return result.get();
}

/// Node-level counters, read on the node's own loop.
struct NodeCounters {
  std::uint64_t sent = 0, bytes = 0, received = 0, send_calls = 0,
                recv_calls = 0, pool_hits = 0, pool_misses = 0;
  double thread_cpu_s = 0;
  double wall_s = 0;
};

struct Cluster {
  std::vector<std::unique_ptr<UdpNode>> nodes;
  std::vector<lls::ShardedKvReplica*> replicas;
  LadderClient* ladder = nullptr;
  std::vector<ProbeStats> probes;  ///< sized kNodes when traced
  std::atomic<bool> loaded{false};
  std::atomic<std::uint64_t> leader_changes{0};
  std::vector<lls::obs::Subscription> subs;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() { stop(); }

  void stop() {
    for (auto& node : nodes) node->stop();
    subs.clear();
  }

  std::optional<NodeCounters> counters(int i) {
    UdpNode& node = *nodes[static_cast<std::size_t>(i)];
    return on_loop(node, [&node]() {
      auto& reg = node.obs().registry();
      NodeCounters c;
      c.sent = reg.counter("udp.datagrams_sent").value();
      c.bytes = reg.counter("udp.bytes_sent").value();
      c.received = reg.counter("udp.datagrams_received").value();
      c.send_calls = reg.counter("udp.sendmmsg_calls").value();
      c.recv_calls = reg.counter("udp.recvmmsg_calls").value();
      c.pool_hits = reg.counter("udp.pool_hits").value();
      c.pool_misses = reg.counter("udp.pool_misses").value();
      c.thread_cpu_s = thread_cpu_seconds();
      c.wall_s = wall_seconds();
      return c;
    });
  }
};

std::unique_ptr<Cluster> build_cluster(std::uint64_t seed, bool traced,
                                       bool leases, std::uint16_t base_port,
                                       std::uint64_t epoch_ns) {
  auto cluster = std::make_unique<Cluster>();
  if (traced) cluster->probes.resize(kNodes);
  auto wrap = [&](ProcessId p, std::unique_ptr<Actor> actor) {
    if (traced) {
      actor = std::make_unique<ProbeActor>(std::move(actor),
                                           cluster->probes[p], epoch_ns);
    }
    lls::UdpNodeConfig nc;
    nc.id = p;
    nc.n = kNodes;
    nc.base_port = base_port;
    nc.seed = seed * 1000 + p;
    cluster->nodes.push_back(std::make_unique<UdpNode>(nc, std::move(actor)));
  };
  lls::KvReplicaConfig rc;
  rc.cluster_n = kReplicas;
  lls::LogConsensusConfig lc;
  lc.lease.enabled = leases;
  lc.lease.duration = kLease;
  lc.lease.clock_margin = kClockMargin;
  lls::CeOmegaConfig oc;
  oc.lease_duration = leases ? kLease : 0;
  lls::ShardedReplicaConfig shc;
  shc.shards = 1;
  shc.replica = rc;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    auto r = std::make_unique<lls::ShardedKvReplica>(
        lls::ShardedKvReplica::Options{.omega = oc, .consensus = lc,
                                       .sharded = shc});
    cluster->replicas.push_back(r.get());
    wrap(p, std::move(r));
  }
  lls::ClusterClientConfig cc;
  cc.cluster_n = kReplicas;
  cc.window = kClientWindow;
  cc.shards = 1;
  cc.lease_reads = leases;
  auto ladder = std::make_unique<LadderClient>(cc, seed);
  cluster->ladder = ladder.get();
  wrap(kClientId, std::move(ladder));

  for (ProcessId p = 0; p < kReplicas; ++p) {
    Cluster* c = cluster.get();
    cluster->subs.push_back(cluster->nodes[p]->obs().bus().subscribe(
        lls::obs::mask_of(lls::obs::EventType::kLeaderChange),
        [c](const lls::obs::Event&) {
          if (c->loaded.load()) c->leader_changes.fetch_add(1);
        }));
  }
  return cluster;
}

/// Builds and starts a cluster on free ports, waits for a ready leader and
/// one acked op. Returns the cluster and the set-up time in seconds.
std::pair<std::unique_ptr<Cluster>, double> set_up(std::uint64_t seed,
                                                   bool traced, bool leases,
                                                   std::uint64_t epoch_ns,
                                                   int attempt_base) {
  const double t0 = wall_seconds();
  std::unique_ptr<Cluster> cluster;
  for (int attempt = 0;; ++attempt) {
    const auto port = static_cast<std::uint16_t>(
        20000 + (static_cast<unsigned>(getpid()) * 37u +
                 static_cast<unsigned>(attempt_base + attempt) * 8u) %
                    40000u);
    cluster = build_cluster(seed, traced, leases, port, epoch_ns);
    try {
      for (auto& node : cluster->nodes) node->start();
      break;
    } catch (const std::runtime_error&) {
      cluster.reset();
      if (attempt >= 20) throw;
    }
  }
  const double give_up = t0 + 10;
  auto leader_ready = [&]() -> bool {
    ProcessId agreed = lls::kNoProcess;
    for (int p = 0; p < kReplicas; ++p) {
      auto* r = cluster->replicas[static_cast<std::size_t>(p)];
      auto view = on_loop(*cluster->nodes[static_cast<std::size_t>(p)],
                          [r]() { return r->omega().leader(); });
      if (!view || *view == lls::kNoProcess) return false;
      if (p > 0 && *view != agreed) return false;
      agreed = *view;
    }
    if (agreed >= kReplicas) return false;
    auto* leader = cluster->replicas[agreed];
    auto ready = on_loop(*cluster->nodes[agreed], [leader]() {
      return leader->group(0).consensus().is_leader_ready();
    });
    return ready && *ready;
  };
  while (!leader_ready()) {
    if (wall_seconds() > give_up) throw std::runtime_error("no leader elected");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  LadderClient* ladder = cluster->ladder;
  UdpNode& client_node = *cluster->nodes[kClientId];
  on_loop(client_node, [ladder]() {
    ladder->submit_now();
    return 0;
  });
  for (;;) {
    auto acked = on_loop(client_node, [ladder]() { return ladder->ops.acked(); });
    if (acked && *acked > 0) break;
    if (wall_seconds() > give_up) throw std::runtime_error("first op not acked");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double setup_s = wall_seconds() - t0;
  cluster->loaded.store(true);
  return {std::move(cluster), setup_s};
}

/// Waits until the client has nothing in flight; false on timeout.
bool drain(Cluster& cluster, std::chrono::milliseconds limit) {
  LadderClient* ladder = cluster.ladder;
  const auto until = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < until) {
    auto left = on_loop(*cluster.nodes[kClientId],
                        [ladder]() { return ladder->outstanding(); });
    if (left && *left == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

OpLog ops_of_step(const OpLog& ops, const std::vector<int>& op_step,
                  int step) {
  OpLog out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (op_step[i] != step) continue;
    const std::size_t j =
        out.add(ops.scheduled[i], ops.is_write[i] != 0, ops.key[i]);
    out.completed[j] = ops.completed[i];
  }
  return out;
}

/// A step passes when every op completed, p99 is within the latency limit
/// and the backlog left at its end fits within one latency limit of
/// arrivals (it did not grow).
bool step_passes(const OpLog& step, double rate, std::size_t backlog_at_end) {
  const double allowed = std::max(8.0, rate * (kLatencyLimit / 1e6));
  return step.size() > 0 && step.acked() == step.size() &&
         static_cast<double>(backlog_at_end) <= allowed &&
         summarize(step, 0, lls::kTimeNever).p99_ms <= kLatencyLimit / 1000.0;
}

/// One pass: set-ups, the ladder (with a quiet window right after the
/// reference step), settle and audit.
struct Pass {
  std::vector<double> setup_s;
  OpLog ops;
  std::vector<int> op_step;
  std::vector<TimePoint> step_start;
  std::vector<double> step_s;               ///< how long each step ran
  std::vector<std::size_t> backlog_at_end;  ///< per step run
  std::vector<double> gen_late_us;
  double ref_cpu_s = 0;
  std::uint64_t ref_allocs = 0;
  /// Node counters around the reference step (start, drained), the quiet
  /// window after it, and at the end of the ladder.
  std::vector<NodeCounters> ref0, ref1, q1, end;
  std::uint64_t leader_changes = 0, retries = 0, redirects = 0;
  std::uint64_t batched_requests = 0, busy_replies = 0;
  std::uint64_t reads_local = 0, reads_ordered = 0, decisions = 0;
  /// Entries of the client session in replica 0's applied-seq set.
  std::uint64_t session_applied = 0;
  int leader = 0;
  bool drained = true;
  std::vector<ProbeStats> probes;
  std::vector<std::string> errors;
};

std::vector<NodeCounters> all_counters(Cluster& cluster,
                                       std::vector<std::string>& errors) {
  std::vector<NodeCounters> out;
  for (int i = 0; i < kNodes; ++i) {
    auto c = cluster.counters(i);
    if (!c) errors.push_back("node " + std::to_string(i) + " loop unresponsive");
    out.push_back(c.value_or(NodeCounters{}));
  }
  return out;
}

/// Runs ladder step i; returns the backlog left when it ended.
std::size_t run_step(Cluster& cluster, std::size_t i, double rate,
                     int closed, Duration len, bool may_abort, double& ran_s) {
  LadderClient* ladder = cluster.ladder;
  UdpNode& client_node = *cluster.nodes[kClientId];
  const double started = wall_seconds();
  on_loop(client_node, [ladder, i, rate, closed, len]() {
    ladder->start_step(static_cast<int>(i), rate, closed, len);
    return 0;
  });
  const double abort_at = rate * (kAbortBacklog / 1e6);
  std::size_t backlog = 0;
  while (wall_seconds() < started + static_cast<double>(len) / 1e6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    backlog = on_loop(client_node, [ladder]() { return ladder->outstanding(); })
                  .value_or(SIZE_MAX);
    if (may_abort && static_cast<double>(backlog) > abort_at) {
      on_loop(client_node, [ladder]() {
        ladder->stop_step();
        return 0;
      });
      break;
    }
  }
  ran_s = std::min(wall_seconds() - started, static_cast<double>(len) / 1e6);
  return backlog;
}

Pass run_pass(const Options& opt, const Plan& plan, bool traced,
              Duration unit, int attempt_base) {
  Pass pass;
  const std::uint64_t epoch_ns = wall_ns();
  std::unique_ptr<Cluster> cluster;
  for (int s = 0; s < kSetups; ++s) {
    if (cluster) cluster->stop();
    cluster.reset();
    auto [c, secs] =
        set_up(opt.seed, traced, plan.leases, epoch_ns, attempt_base + s * 32);
    cluster = std::move(c);
    pass.setup_s.push_back(secs);
  }
  LadderClient* ladder = cluster->ladder;
  UdpNode& client_node = *cluster->nodes[kClientId];
  const auto drain_max =
      std::chrono::duration_cast<std::chrono::milliseconds>(kDrainMax);

  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const bool reference = i == plan.reference;
    const double rate = plan.steps[i].rate;
    double cpu0 = 0;
    std::uint64_t alloc0 = 0;
    if (reference) {
      pass.ref0 = all_counters(*cluster, pass.errors);
      cpu0 = cpu_seconds();
      alloc0 = allocs();
    }
    double ran_s = 0;
    const std::size_t backlog =
        run_step(*cluster, i, rate, plan.closed, unit * plan.steps[i].weight,
                 plan.steps.size() > 1, ran_s);
    pass.step_s.push_back(ran_s);
    pass.backlog_at_end.push_back(backlog);
    if (!drain(*cluster, drain_max)) {
      pass.drained = false;
      const auto stalled = on_loop(client_node, [ladder]() {
        return std::make_pair(ladder->idle_for(), ladder->ops.acked());
      });
      if (!stalled || stalled->first > kStalled) {
        pass.errors.push_back(
            "progress stopped: no op completed in the last " +
            (stalled ? std::to_string(stalled->first / kMillisecond) + " ms"
                     : std::string("(client loop unresponsive)")) +
            ", after " +
            (stalled ? std::to_string(stalled->second) : std::string("?")) +
            " acked ops");
      }
      break;
    }
    if (reference) {
      pass.ref_cpu_s = cpu_seconds() - cpu0;
      pass.ref_allocs = allocs() - alloc0;
      pass.ref1 = all_counters(*cluster, pass.errors);
      std::this_thread::sleep_for(kQuiet);
      pass.q1 = all_counters(*cluster, pass.errors);
    }
    const auto step = static_cast<int>(i);
    const bool ok =
        on_loop(client_node, [ladder, step, rate, backlog]() {
          return step_passes(ops_of_step(ladder->ops, ladder->op_step, step),
                             rate, backlog);
        }).value_or(false);
    if (!ok && i >= plan.reference) break;
  }
  pass.end = all_counters(*cluster, pass.errors);

  // Settle: stop the client so no new request arrives (an undrained run
  // still has some in flight), then wait until every replica has applied
  // the same prefix on two polls in a row; followers learn the tail
  // decisions asynchronously.
  cluster->nodes[kClientId]->stop();
  std::vector<lls::Instance> applied(kReplicas, 0);
  lls::Instance agreed = 0;
  bool converged = false;
  const auto settle_until =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!converged && std::chrono::steady_clock::now() < settle_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (int p = 0; p < kReplicas; ++p) {
      auto* r = cluster->replicas[static_cast<std::size_t>(p)];
      applied[static_cast<std::size_t>(p)] =
          on_loop(*cluster->nodes[static_cast<std::size_t>(p)],
                  [r]() { return r->group(0).applied_upto(); })
              .value_or(0);
    }
    const bool same = std::all_of(
        applied.begin(), applied.end(),
        [&](lls::Instance a) { return a == applied.front(); });
    converged = same && applied.front() == agreed;
    agreed = same ? applied.front() : 0;
  }
  pass.leader = static_cast<int>(
      on_loop(*cluster->nodes[0], [r = cluster->replicas[0]]() {
        return r->omega().leader();
      }).value_or(0));
  if (pass.leader >= kReplicas) pass.leader = 0;
  cluster->stop();

  // Loops are joined: everything below reads plain memory.
  pass.leader_changes = cluster->leader_changes.load();
  const lls::ClusterClient& client = ladder->client();
  pass.retries = client.retries();
  pass.redirects = client.redirects();
  pass.batched_requests = client.batched_requests();
  const std::uint64_t issued = ladder->client().session().issued();
  for (std::uint64_t seq = 1; seq <= issued; ++seq) {
    if (cluster->replicas[0]->has_applied(kClientId, seq)) {
      ++pass.session_applied;
    }
  }
  std::vector<const lls::ShardedKvReplica*> replicas;
  for (const auto* r : cluster->replicas) {
    replicas.push_back(r);
    pass.busy_replies += r->busy_sent();
    pass.reads_local += r->reads_local();
    pass.reads_ordered += r->reads_ordered();
    pass.decisions = std::max<std::uint64_t>(
        pass.decisions, r->group(0).consensus().first_unknown());
  }
  if (converged) {
    Report audit;
    audit_replicas(audit, replicas, ladder->ops);
    pass.errors.insert(pass.errors.end(), audit.errors.begin(),
                       audit.errors.end());
  } else {
    pass.errors.push_back(
        "replicas did not converge within 3 s of the drain (applied up to " +
        std::to_string(applied[0]) + "/" + std::to_string(applied[1]) + "/" +
        std::to_string(applied[2]) + "); audit not run");
  }
  pass.ops = std::move(ladder->ops);
  pass.op_step = std::move(ladder->op_step);
  pass.step_start = std::move(ladder->step_start);
  pass.gen_late_us = std::move(ladder->gen_late_us);
  pass.probes = std::move(cluster->probes);
  for (ProbeStats& p : pass.probes) p.pool = nullptr;  // dies with the nodes
  return pass;
}

template <typename F>
double sum_delta(const std::vector<NodeCounters>& a,
                 const std::vector<NodeCounters>& b, F field) {
  double total = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    total += static_cast<double>(field(b[i])) - static_cast<double>(field(a[i]));
  }
  return total;
}

std::uint64_t sent_of(const NodeCounters& c) { return c.sent; }
std::uint64_t bytes_of(const NodeCounters& c) { return c.bytes; }
std::uint64_t received_of(const NodeCounters& c) { return c.received; }

/// The highest step that passed (0 if none), noting every step's figures
/// into `notes` when given.
double max_ok_rate(const Plan& plan, const Pass& pass, Report* notes) {
  double best = 0;
  for (std::size_t i = 0; i < pass.backlog_at_end.size(); ++i) {
    const OpLog step = ops_of_step(pass.ops, pass.op_step, static_cast<int>(i));
    const double rate = plan.steps[i].rate;
    const bool ok = step_passes(step, rate, pass.backlog_at_end[i]);
    if (notes != nullptr) {
      const std::string tag = "step" + std::to_string(static_cast<int>(rate));
      notes->note(tag + ".p99_ms", summarize(step, 0, lls::kTimeNever).p99_ms,
                  "ms");
      notes->note(tag + ".completed_ratio",
                  per(static_cast<double>(step.acked()),
                      static_cast<double>(step.size())),
                  "ratio");
      notes->note(tag + ".backlog_at_end",
                  static_cast<double>(pass.backlog_at_end[i]), "ops");
    }
    if (ok) best = rate;
  }
  return best;
}

}  // namespace

Report run_udp_workload(const Options& opt) {
  const Plan plan = plan_of(opt.workload);
  const bool is_ladder = plan.steps.size() > 1;
  Report report;
  report.param("replicas", kReplicas);
  report.param("client_nodes", 1);
  report.param("loop_threads", kNodes);
  report.param("loop", plan.closed > 0
                           ? "closed, " + std::to_string(plan.closed) +
                                 " in flight"
                           : std::string("open, generator on the client's loop"));
  std::string ladder;
  for (const Step& s : plan.steps) {
    ladder += (ladder.empty() ? "" : ",") +
              std::to_string(static_cast<int>(s.rate)) + "x" +
              std::to_string(s.weight);
  }
  if (plan.closed == 0) {
    report.param("ladder_ops_per_s", ladder);
    report.param("reference_step_ops_per_s", kReferenceRate);
  }
  report.param("client_window", static_cast<double>(kClientWindow));
  report.param("generator_tick_ms", static_cast<double>(kGenTick / kMillisecond));
  report.param("keys", kKeys);
  report.param("value_bytes", static_cast<double>(put_value(0, 1).size()));
  report.param("write_ratio", kWriteRatio);
  report.param("leases", plan.leases ? "on, 5 ms clock margin" : "off");
  report.param("transport", "UDP loopback, batched sendmmsg/recvmmsg");
  report.param("latency_limit_ms",
               static_cast<double>(kLatencyLimit / kMillisecond));
  report.param("setups_per_pass", kSetups);

  // A traced invocation runs an untraced and a traced pass at half the
  // step length each; their difference is the tracing overhead.
  int weights = 0;
  for (const Step& s : plan.steps) weights += s.weight;
  const Duration unit = static_cast<Duration>(opt.seconds) * kSecond /
                        weights / (opt.trace ? 2 : 1);
  report.param("step_unit_ms", static_cast<double>(unit) / kMillisecond);
  Pass pass = run_pass(opt, plan, false, unit, 0);
  std::optional<Pass> traced;
  if (opt.trace) traced = run_pass(opt, plan, true, unit, 1000);
  for (const auto& e : pass.errors) report.fail(e);
  if (traced) {
    for (const auto& e : traced->errors) report.fail("traced pass: " + e);
  }

  // Ladder ops (the set-up probe ops are not part of the load).
  std::uint64_t attempted = 0, acked = 0;
  for (std::size_t i = 0; i < pass.ops.size(); ++i) {
    if (pass.op_step[i] < 0) continue;
    ++attempted;
    if (pass.ops.completed[i] != OpLog::kPending) ++acked;
  }
  report.attempted = attempted;
  report.failed = attempted - acked;

  const auto ref_step = static_cast<int>(plan.reference);
  const OpLog ref = ops_of_step(pass.ops, pass.op_step, ref_step);
  const double ref_acked = static_cast<double>(ref.acked());
  LatencySummary lat;
  std::vector<TimePoint> instants;
  double ref_s = 0;  ///< reference step start to its last completion
  if (pass.step_start.size() > plan.reference) {
    const TimePoint from = pass.step_start[plan.reference];
    TimePoint last = from;
    for (TimePoint done : ref.completed) last = std::max(last, done);
    ref_s = static_cast<double>(last - from) / 1e6;
    const auto to = from + static_cast<TimePoint>(
                               pass.step_s[plan.reference] * 1e6);
    lat = summarize(ref, from, to);
    for (TimePoint t = from; t < to; t += kInstantEvery) instants.push_back(t);
  }
  const double quiet_s = std::chrono::duration<double>(kQuiet).count();

  report.e2e("ops_per_s", per(ref_acked, ref_s), "ops/s");
  // Only a ladder offers more than one rate.
  if (is_ladder) {
    report.e2e("max_ok_rate", max_ok_rate(plan, pass, &report), "ops/s");
  }
  report.e2e("p50_ms", lat.p50_ms, "ms");
  report.e2e("p99_ms", lat.p99_ms, "ms");
  report.e2e("read_p99_ms", lat.read_p99_ms, "ms");
  report.e2e("write_p99_ms", lat.write_p99_ms, "ms");
  report.e2e("unavail_ms", unavail_ms(ref, instants), "ms");
  report.e2e("msgs_per_op", per(sum_delta(pass.ref0, pass.ref1, sent_of), ref_acked),
             "msgs/op");
  report.e2e("bytes_per_op",
             per(sum_delta(pass.ref0, pass.ref1, bytes_of), ref_acked), "B/op");
  report.e2e("quiet_msgs_per_s", sum_delta(pass.ref1, pass.q1, sent_of) / quiet_s,
             "msgs/s");
  report.e2e("setup_s", median(pass.setup_s), "s");
  report.e2e("rss_mb", peak_rss_mb(), "MiB");

  report.note("cpu_us_per_op", 1e6 * per(pass.ref_cpu_s, ref_acked), "us/op");
  note_samples(report, lat);
  report.note("fail_ratio", per(static_cast<double>(report.failed),
                                static_cast<double>(report.attempted)),
              "ratio");
  report.note("acked_ops", static_cast<double>(acked), "count");
  report.note("quiet_floor_msgs_per_s", (kReplicas - 1) / 0.010, "msgs/s");
  report.note("drained", pass.drained ? 1 : 0, "bool");
  // The reported UDP freeze was tied to rehash points of the per-origin
  // applied-seq set; the first is at 172,934 entries.
  report.note("rsm.session_applied_entries",
              static_cast<double>(pass.session_applied), "count");

  if (!opt.trace) return report;

  // Per-layer: traffic and handler time over the whole traced pass,
  // runtime counters over the ladder.
  const Pass& t = *traced;
  double t_acked = 0;
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    if (t.op_step[i] >= 0 && t.ops.completed[i] != OpLog::kPending) ++t_acked;
  }
  auto busy = [&](int node) {
    const auto i = static_cast<std::size_t>(node);
    return per(t.end[i].thread_cpu_s - t.ref0[i].thread_cpu_s,
               t.end[i].wall_s - t.ref0[i].wall_s);
  };
  double pool_hits = 0, pool_misses = 0;
  for (const NodeCounters& c : t.end) {
    pool_hits += static_cast<double>(c.pool_hits);
    pool_misses += static_cast<double>(c.pool_misses);
  }
  const OpLog t_ref =
      ops_of_step(t.ops, t.op_step, ref_step);
  const double untraced_cpu = 1e6 * per(pass.ref_cpu_s, ref_acked);
  const double traced_cpu =
      1e6 * per(t.ref_cpu_s, static_cast<double>(t_ref.acked()));
  auto sent_calls = [](const NodeCounters& c) { return c.send_calls; };
  auto recv_calls = [](const NodeCounters& c) { return c.recv_calls; };

  LayerFigures f;
  add_probe_figures(f, t.probes, probe_totals(t.probes),
                    static_cast<std::size_t>(t.leader),
                    {.acked = t_acked,
                     .decisions = static_cast<double>(t.decisions),
                     .reads_local = static_cast<double>(t.reads_local),
                     .reads_ordered = static_cast<double>(t.reads_ordered),
                     .retries = static_cast<double>(t.retries),
                     .redirects = static_cast<double>(t.redirects),
                     .batched_requests = static_cast<double>(t.batched_requests),
                     .busy_replies = static_cast<double>(t.busy_replies)});
  f.allocs_per_op = per(static_cast<double>(pass.ref_allocs), ref_acked);
  f.pool_hit_ratio = per(pool_hits, pool_hits + pool_misses);
  f.leader_changes = static_cast<double>(t.leader_changes);
  std::vector<double> gen_late = t.gen_late_us;
  f.gen_late_us_p99 = percentile(gen_late, 99);
  f.busy_frac_leader = busy(t.leader);
  for (int p = 0; p < kReplicas; ++p) {
    if (p != t.leader) f.busy_frac_follower += busy(p) / (kReplicas - 1);
  }
  f.busy_frac_client = busy(kClientId);
  f.dgrams_per_send = per(sum_delta(t.ref0, t.end, sent_of),
                          sum_delta(t.ref0, t.end, sent_calls));
  f.dgrams_per_recv = per(sum_delta(t.ref0, t.end, received_of),
                          sum_delta(t.ref0, t.end, recv_calls));
  f.loss_ratio = 1.0 - per(sum_delta(t.ref0, t.end, received_of),
                           sum_delta(t.ref0, t.end, sent_of));
  f.overhead_ratio = per(traced_cpu, untraced_cpu);
  f.emit(report, true);
  report.note("consensus.msgs_per_decision_floor", 2.0 * (kReplicas - 1),
              "msgs/decision");
  if (is_ladder) {
    report.note("traced.max_ok_rate", max_ok_rate(plan, t, nullptr), "ops/s");
  }

  if (!opt.trace_out.empty()) {
    if (std::FILE* out = std::fopen(opt.trace_out.c_str(), "w")) {
      write_request_spans(out, t.ops);
      write_handler_spans(out, t.probes);
      std::fclose(out);
    }
  }
  return report;
}

}  // namespace perfbench
