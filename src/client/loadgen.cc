#include "client/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/cluster_client.h"
#include "net/topology.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "rsm/history.h"
#include "runtime/udp_runtime.h"
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

/// The replica and client configs of one run, the same on both hosts.
struct ClusterConfigs {
  ShardedKvReplica::Options replica;
  ClusterClientConfig client;
};

ClusterConfigs cluster_configs(const LoadgenConfig& config, bool real_clock) {
  ClusterConfigs out;
  KvReplicaConfig& rc = out.replica.sharded.replica;
  rc.cluster_n = config.cluster_n;
  rc.max_batch = config.max_batch;
  rc.batch_flush_delay = config.batch_flush_delay;
  rc.admit_high_water = config.admit_high_water;
  out.replica.sharded.shards = config.shards;
  LogConsensusConfig& lc = out.replica.consensus;
  lc.max_inflight = config.consensus_max_inflight;
  lc.lease.enabled = config.lease_reads;
  lc.lease.duration = config.lease_duration;
  // Real clocks drift: never run leases over UDP without slack. The
  // fence/support windows only depend on drift *rates* over one lease
  // window, so a few milliseconds dominates commodity oscillators.
  lc.lease.clock_margin =
      real_clock ? std::max<Duration>(config.lease_clock_margin,
                                      5 * kMillisecond)
                 : config.lease_clock_margin;
  // The omega hint is advisory fast invalidation; 0 (leases off) disables it.
  out.replica.omega.lease_duration =
      config.lease_reads ? config.lease_duration : 0;

  ClusterClientConfig& cc = out.client;
  cc.cluster_n = config.cluster_n;
  cc.window = config.open_loop
                  ? 4096  // open loop: queueing is the experiment
                  : static_cast<std::size_t>(config.closed_outstanding);
  cc.attempt_timeout = config.attempt_timeout;
  cc.request_deadline = config.request_deadline;
  cc.shards = config.shards;
  cc.coalesce = config.coalesce;
  cc.lease_reads = config.lease_reads;
  return out;
}

/// Client latency histograms: all ops, by op class and by shard.
struct Latency {
  explicit Latency(int shards) : shard(static_cast<std::size_t>(shards)) {}
  obs::Histogram all, read, write;
  std::vector<obs::Histogram> shard;
};

/// The host seam: what the driver needs from whatever runs the actors.
/// Constructing a host builds and starts the cluster.
class Host {
 public:
  Host() = default;
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;
  virtual ~Host() = default;

  /// Runs `fn` on client `c`'s thread.
  virtual void post(int c, std::function<void()> fn) = 0;
  /// The host clock; callable from any thread.
  [[nodiscard]] virtual TimePoint now() const = 0;
  /// Runs the cluster (sim) or waits (UDP) until `t`.
  virtual void run_until(TimePoint t) = 0;
  /// Stops every actor; afterwards their state may be read on this thread.
  virtual void stop() {}
  [[nodiscard]] virtual bool alive(ProcessId /*p*/) const { return true; }
  /// Fills what only this host measures (leader changes, crash, message
  /// or datagram counters) and writes its artifacts.
  virtual void measure(LoadgenResult& result, Latency& latency) = 0;

  std::vector<ShardedKvReplica*> replicas;
  std::vector<ClusterClient*> clients;
};

SimConfig sim_config(const LoadgenConfig& config) {
  SimConfig sc;
  sc.n = config.cluster_n + config.clients;
  sc.seed = config.seed;
  return sc;
}

class SimHost final : public Host {
 public:
  SimHost(const LoadgenConfig& config, const ClusterConfigs& configs)
      : config_(config),
        sim_(sim_config(config), make_all_timely({500, 2 * kMillisecond})),
        election_spans_(sim_.plane(), config.cluster_n) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(config.cluster_n); ++p) {
      replicas.push_back(
          &sim_.emplace_actor<ShardedKvReplica>(p, configs.replica));
    }
    for (int c = 0; c < config.clients; ++c) {
      clients.push_back(&sim_.emplace_actor<ClusterClient>(
          static_cast<ProcessId>(config.cluster_n + c), configs.client));
    }
    if (!config.artifacts_prefix.empty()) {
      // Election/epoch story only: per-op events (decide/apply/request/
      // reply) would evict the handful of span boundaries from the ring,
      // and their aggregate lives in the histograms anyway.
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
      tracer_ =
          std::make_unique<obs::RingTracer>(sim_.plane().bus(), 65536, story);
    }
    if (config.crash_leader_at > 0) {
      sim_.schedule(config.crash_leader_at, [this] { crash_leader(); });
    }
    sim_.start();
  }

  void post(int /*c*/, std::function<void()> fn) override {
    sim_.schedule(sim_.now(), std::move(fn));
  }
  [[nodiscard]] TimePoint now() const override { return sim_.now(); }
  void run_until(TimePoint t) override { sim_.run_until(t); }
  [[nodiscard]] bool alive(ProcessId p) const override {
    return sim_.alive(p);
  }

  void measure(LoadgenResult& result, Latency& latency) override {
    result.crashed = crashed_;
    result.leader_changes =
        sim_.plane().bus().count(obs::EventType::kLeaderChange);
    const NetStats& stats = *NetStats::from(sim_.plane().registry());
    result.omega_msgs =
        stats.sent_by_class(NetStats::type_class(msg_type::kCeOmegaAlive));
    result.consensus_msgs =
        stats.sent_by_class(NetStats::type_class(msg_type::kConsensusBase));
    result.client_msgs =
        stats.sent_by_class(NetStats::type_class(msg_type::kRsmBase));
    if (config_.artifacts_prefix.empty()) return;
    // The whole plane as Prometheus text and JSON, client latency included,
    // plus the retained control-plane trace.
    obs::Registry& registry = sim_.plane().registry();
    registry.histogram("client_latency_ms").merge(latency.all);
    registry.histogram("client_read_latency_ms").merge(latency.read);
    registry.histogram("client_write_latency_ms").merge(latency.write);
    for (std::size_t g = 0; g < latency.shard.size(); ++g) {
      registry.histogram("client_latency_ms_shard" + std::to_string(g))
          .merge(latency.shard[g]);
    }
    const std::string& prefix = config_.artifacts_prefix;
    obs::write_text_file(prefix + ".prom", obs::render_prometheus(registry));
    obs::write_text_file(prefix + ".json", obs::render_json(registry));
    tracer_->dump_jsonl_file(prefix + ".trace.jsonl");
  }

 private:
  /// Leader assassination: kill whoever the (alive) cluster trusts.
  void crash_leader() {
    for (ProcessId p = 0; p < static_cast<ProcessId>(config_.cluster_n); ++p) {
      if (!sim_.alive(p)) continue;
      ProcessId leader = replicas[p]->omega().leader();
      if (leader != kNoProcess &&
          leader < static_cast<ProcessId>(config_.cluster_n) &&
          sim_.alive(leader)) {
        crashed_ = leader;
        sim_.crash_now(leader);
      }
      break;
    }
  }

  const LoadgenConfig& config_;
  Simulator sim_;
  /// Turns the bus's leader changes into election-stabilization spans and
  /// their histogram, both part of the artifacts.
  obs::ElectionSpanTracker election_spans_;
  std::unique_ptr<obs::RingTracer> tracer_;
  ProcessId crashed_ = kNoProcess;
};

class UdpHost final : public Host {
 public:
  UdpHost(const LoadgenConfig& config, const ClusterConfigs& configs,
          const LoadgenHost& host)
      : cluster_n_(config.cluster_n) {
    const int n = config.cluster_n + config.clients;
    auto node_config = [&](ProcessId id, std::uint64_t seed) {
      UdpNodeConfig nc;
      nc.id = id;
      nc.n = n;
      nc.base_port = host.udp_base_port;
      nc.seed = seed;
      return nc;
    };
    for (ProcessId p = 0; p < static_cast<ProcessId>(config.cluster_n); ++p) {
      UdpNodeConfig nc = node_config(p, config.seed + p);
      if (p == 0) nc.stats_port = host.stats_port;
      auto replica = std::make_unique<ShardedKvReplica>(configs.replica);
      replicas.push_back(replica.get());
      nodes_.push_back(std::make_unique<UdpNode>(nc, std::move(replica)));
    }
    for (int c = 0; c < config.clients; ++c) {
      auto client = std::make_unique<ClusterClient>(configs.client);
      clients.push_back(client.get());
      nodes_.push_back(std::make_unique<UdpNode>(
          node_config(static_cast<ProcessId>(config.cluster_n + c),
                      config.seed + 1000 + static_cast<std::uint64_t>(c)),
          std::move(client)));
    }
    for (auto& node : nodes_) node->start();
  }

  void post(int c, std::function<void()> fn) override {
    nodes_[static_cast<std::size_t>(cluster_n_ + c)]->post(std::move(fn));
  }
  /// One clock for every thread: each UdpNode epochs its own clock at
  /// construction, so node times are mutually skewed.
  [[nodiscard]] TimePoint now() const override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  void run_until(TimePoint t) override {
    std::this_thread::sleep_until(epoch_ + std::chrono::microseconds(t));
  }
  void stop() override {
    for (auto& node : nodes_) node->stop();
  }

  void measure(LoadgenResult& result, Latency& /*latency*/) override {
    auto sum = [&](const char* counter) {
      std::uint64_t total = 0;
      for (auto& node : nodes_) {
        total += node->obs().registry().counter(counter).value();
      }
      return total;
    };
    result.datagrams_sent = sum("udp.datagrams_sent");
    result.datagrams_received = sum("udp.datagrams_received");
    result.malformed_dropped = sum("udp.malformed_dropped");
    result.sendmmsg_calls = sum("udp.sendmmsg_calls");
    result.recvmmsg_calls = sum("udp.recvmmsg_calls");
    result.pool_hits = sum("udp.pool_hits");
    result.pool_misses = sum("udp.pool_misses");
    for (int p = 0; p < cluster_n_; ++p) {
      result.leader_changes += nodes_[static_cast<std::size_t>(p)]
                                   ->obs()
                                   .bus()
                                   .count(obs::EventType::kLeaderChange);
    }
  }

 private:
  int cluster_n_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<UdpNode>> nodes_;
};

/// One client's share of the load. Touched only on that client's thread
/// until the host stops, so it needs no lock.
struct ClientLoad {
  ClientLoad(std::uint64_t seed, int shards)
      : rng(seed),
        latency(shards),
        shard_acked(static_cast<std::size_t>(shards), 0) {}
  Rng rng;
  Latency latency;  ///< measured ops only
  std::vector<std::uint64_t> shard_acked;
  std::uint64_t reads = 0, writes = 0;  ///< measured ops
  std::uint64_t tokens = 0;             ///< verify tokens issued
  std::vector<std::string> acked_tokens;
};

/// One run: the arrival process, the per-op path and the roll-up.
class Workload {
 public:
  /// `source` names the host in the history header.
  Workload(const LoadgenConfig& config, Host& host, const char* source)
      : config_(config),
        host_(host),
        picker_(config.keys, config.zipf),
        route_map_(config.shards),
        load_end_(config.start + config.duration),
        measure_from_(config.start + config.warmup) {
    loads_.reserve(static_cast<std::size_t>(config.clients));
    for (int c = 0; c < config.clients; ++c) {
      loads_.emplace_back(config.seed * 7919 + static_cast<std::uint64_t>(c),
                          config.shards);
    }
    if (!config.hist_path.empty()) {
      HistoryMeta meta;
      meta.source = source;
      meta.seed = config.seed;
      hist_.open(config.hist_path, meta);
    }
  }

  LoadgenResult run() {
    if (config_.open_loop) {
      // Client c arrives at start + gap*c/clients + k*gap: staggered within
      // one gap so arrivals interleave, and visited in time order.
      const auto gap = std::max<Duration>(
          1, static_cast<Duration>(static_cast<double>(kSecond) /
                                   config_.open_rate));
      for (TimePoint base = config_.start; base < load_end_; base += gap) {
        for (int c = 0; c < config_.clients; ++c) {
          const TimePoint t = base + (gap * c) / config_.clients;
          if (t >= load_end_) break;
          host_.run_until(t);
          host_.post(c, [this, c] { submit(c); });
        }
      }
    } else {
      host_.run_until(config_.start);
      for (int c = 0; c < config_.clients; ++c) {
        host_.post(c, [this, c] {
          for (int k = 0; k < config_.closed_outstanding; ++k) submit(c);
        });
      }
    }
    host_.run_until(load_end_);

    LoadgenResult result;
    // Drain: run until every op has completed (or give up at the deadline).
    const TimePoint drain_deadline = load_end_ + config_.drain;
    while (host_.now() < drain_deadline) {
      if (outstanding_.load() == 0) {
        result.drained = true;
        break;
      }
      host_.run_until(host_.now() + 20 * kMillisecond);
    }
    // Settle: clients going idle only means the LEADER applied and replied;
    // the idle-tail DECIDEs to the followers may still be in flight, and a
    // follower that missed them is caught up only after a stalled retry
    // period. Run past a few retry periods so the end-of-run audit compares
    // converged stores.
    if (result.drained) host_.run_until(host_.now() + 100 * kMillisecond);
    host_.stop();
    hist_.close();
    roll_up(result);
    return result;
  }

 private:
  /// Issues one request from client `c`; in closed loop its completion
  /// issues the next, keeping the window full until the load window ends.
  void submit(int c) {
    ClientLoad& load = loads_[static_cast<std::size_t>(c)];
    const auto origin = static_cast<ProcessId>(config_.cluster_n + c);
    std::string key = "k" + std::to_string(picker_.pick(load.rng, config_.keys));
    const bool write = load.rng.chance(config_.write_ratio);
    std::string token;
    if (write && config_.verify) {
      token = std::to_string(origin) + "." + std::to_string(++load.tokens) +
              ";";
    }
    // Stamped before submit on the host clock, so a recorded interval
    // contains the true one. The op id is known only after submit()
    // assigns the session seq; the completion cannot run before submit()
    // returns (both run on this client's thread), so it reads the id from
    // the shared slot.
    const TimePoint invoked = host_.now();
    auto hist_id = hist_.is_open() ? std::make_shared<std::uint64_t>(0)
                                   : std::shared_ptr<std::uint64_t>();
    outstanding_.fetch_add(1);
    auto cb = [this, c, invoked, token, hist_id](const ClientCompletion& done) {
      complete(c, invoked, token, hist_id.get(), done);
    };
    const KvOp op =
        !write ? KvOp::kGet : (config_.verify ? KvOp::kAppend : KvOp::kPut);
    std::string value =
        write ? (config_.verify ? token : std::string(config_.value_size, 'x'))
              : std::string();
    ClusterClient& client = *host_.clients[static_cast<std::size_t>(c)];
    const std::uint64_t seq =
        write ? client.submit(op, key, value, "", std::move(cb))
              : client.get(key, std::move(cb));
    if (hist_id) {
      Command cmd;
      cmd.origin = origin;
      cmd.seq = seq;
      cmd.op = op;
      cmd.key = std::move(key);
      cmd.value = std::move(value);
      std::lock_guard<std::mutex> lock(hist_mu_);
      *hist_id = hist_.invoke(cmd, invoked);
    }
  }

  void complete(int c, TimePoint invoked, const std::string& token,
                const std::uint64_t* hist_id, const ClientCompletion& done) {
    ClientLoad& load = loads_[static_cast<std::size_t>(c)];
    if (!done.timed_out) {
      if (hist_id != nullptr) {
        const TimePoint now = host_.now();
        std::lock_guard<std::mutex> lock(hist_mu_);
        hist_.respond(*hist_id, now, done.result);
      }
      if (invoked >= measure_from_ && invoked < load_end_) {
        const double ms = static_cast<double>(done.completed - done.invoked) /
                          static_cast<double>(kMillisecond);
        load.latency.all.record(ms);
        if (done.cmd.op == KvOp::kGet) {
          ++load.reads;
          load.latency.read.record(ms);
        } else {
          ++load.writes;
          load.latency.write.record(ms);
        }
        const ShardId g = route_map_.shard_of(done.cmd.key);
        ++load.shard_acked[g];
        load.latency.shard[g].record(ms);
      }
      if (!token.empty()) load.acked_tokens.push_back(token);
    }
    outstanding_.fetch_sub(1);
    if (!config_.open_loop && host_.now() < load_end_) submit(c);
  }

  void roll_up(LoadgenResult& result) {
    for (const ClusterClient* c : host_.clients) {
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

    // Client measurements, merged.
    const int shard_count = config_.shards;
    Latency latency(shard_count);
    std::uint64_t reads = 0, writes = 0;
    std::vector<std::uint64_t> shard_acked(
        static_cast<std::size_t>(shard_count), 0);
    for (const ClientLoad& load : loads_) {
      latency.all.merge(load.latency.all);
      latency.read.merge(load.latency.read);
      latency.write.merge(load.latency.write);
      for (std::size_t g = 0; g < shard_acked.size(); ++g) {
        latency.shard[g].merge(load.latency.shard[g]);
        shard_acked[g] += load.shard_acked[g];
      }
      reads += load.reads;
      writes += load.writes;
    }
    const double window_s =
        static_cast<double>(load_end_ - measure_from_) / kSecond;
    auto per_s = [window_s](std::uint64_t n) {
      return window_s > 0 ? static_cast<double>(n) / window_s : 0;
    };
    result.p50_ms = latency.all.percentile(50);
    result.p90_ms = latency.all.percentile(90);
    result.p99_ms = latency.all.percentile(99);
    result.mean_ms = latency.all.mean();
    result.max_ms = latency.all.max();
    result.throughput = per_s(reads + writes);
    auto fill_op = [&](LoadgenResult::OpStats& op, const obs::Histogram& h,
                       std::uint64_t acked) {
      op.acked = acked;
      op.throughput = per_s(acked);
      op.p50_ms = h.percentile(50);
      op.p90_ms = h.percentile(90);
      op.p99_ms = h.percentile(99);
      op.mean_ms = h.mean();
      op.max_ms = h.max();
    };
    fill_op(result.reads, latency.read, reads);
    fill_op(result.writes, latency.write, writes);
    result.shard_stats.resize(static_cast<std::size_t>(shard_count));
    std::uint64_t max_ops = 0;
    for (std::size_t g = 0; g < shard_acked.size(); ++g) {
      auto& s = result.shard_stats[g];
      s.acked = shard_acked[g];
      s.throughput = per_s(s.acked);
      s.p50_ms = latency.shard[g].percentile(50);
      s.p99_ms = latency.shard[g].percentile(99);
      max_ops = std::max(max_ops, s.acked);
    }
    if (reads + writes > 0) {
      const double mean_ops = static_cast<double>(reads + writes) /
                              static_cast<double>(shard_count);
      result.shard_imbalance = static_cast<double>(max_ops) / mean_ops;
    }

    // Decisions: per group, the most advanced contiguous decided prefix any
    // alive replica knows; summed over groups. Includes no-op fillers, so it
    // measures log motion rather than client acks.
    std::vector<Instance> group_decided(static_cast<std::size_t>(shard_count),
                                        0);
    for (ProcessId p = 0; p < static_cast<ProcessId>(config_.cluster_n); ++p) {
      if (!host_.alive(p)) continue;
      const ShardedKvReplica& r = *host_.replicas[p];
      result.duplicates_suppressed += r.duplicates_suppressed();
      result.cached_replies += r.cached_replies_sent();
      result.busy_sent += r.busy_sent();
      result.envelopes_rejected += r.envelopes_rejected();
      result.reads_local += r.reads_local();
      result.reads_ordered += r.reads_ordered();
      const KvHeldState held = r.held_state();
      auto keep_max = [](std::uint64_t& slot, std::size_t v) {
        slot = std::max<std::uint64_t>(slot, v);
      };
      keep_max(result.accepted_pairs_held, held.accepted_pairs);
      keep_max(result.log_entries_held, held.log_entries);
      keep_max(result.dedup_entries, held.dedup_entries);
      keep_max(result.cached_results, held.cached_results);
      for (int g = 0; g < shard_count; ++g) {
        const LogConsensus& cons = r.group(g).consensus();
        result.dup_proposals_suppressed += cons.dup_proposals_suppressed();
        group_decided[static_cast<std::size_t>(g)] = std::max(
            group_decided[static_cast<std::size_t>(g)], cons.first_unknown());
      }
    }
    for (Instance d : group_decided) result.consensus_decisions += d;
    if (result.reads_local + result.reads_ordered > 0) {
      result.lease_read_ratio =
          static_cast<double>(result.reads_local) /
          static_cast<double>(result.reads_local + result.reads_ordered);
    }

    host_.measure(result, latency);
    if (result.consensus_msgs) message_economy(result);
    if (config_.verify) audit(result);
  }

  /// Per-command and per-op-class consensus cost, from the class counts.
  static void message_economy(LoadgenResult& result) {
    const auto consensus = static_cast<double>(*result.consensus_msgs);
    const auto acked = static_cast<double>(result.acked);
    result.consensus_msgs_per_cmd = acked > 0 ? consensus / acked : 0;
    result.total_msgs_per_cmd =
        acked > 0 ? (consensus + static_cast<double>(*result.client_msgs)) /
                        acked
                  : 0;
    result.consensus_msgs_per_decision =
        result.consensus_decisions > 0
            ? consensus / static_cast<double>(result.consensus_decisions)
            : 0;
    // Consensus traffic belongs to ordered commands; a lease-served read
    // costs zero consensus messages by construction. The replicas' own
    // admission counters give the local/ordered split for reads (with
    // leases off every read is ordered).
    const double ordered_reads = static_cast<double>(result.reads.acked) *
                                 (1.0 - result.lease_read_ratio);
    const double ordered_cmds =
        static_cast<double>(result.writes.acked) + ordered_reads;
    const double per_ordered = ordered_cmds > 0 ? consensus / ordered_cmds : 0;
    result.writes.consensus_msgs_per_op = per_ordered;
    result.reads.consensus_msgs_per_op =
        result.reads.acked > 0
            ? per_ordered * ordered_reads /
                  static_cast<double>(result.reads.acked)
            : 0;
  }

  /// Exactly-once audit: every acked token appears exactly once on every
  /// alive replica, and every group's store agrees across replicas.
  void audit(LoadgenResult& result) const {
    auto fail = [&](std::string what) {
      result.verify_ok = false;
      result.verify_errors.push_back(std::move(what));
    };
    const int shard_count = config_.shards;
    // Digests are compared per group: a sharded process holds M disjoint
    // stores, each of which must converge across replicas independently.
    std::vector<std::uint64_t> ref_digest(
        static_cast<std::size_t>(shard_count), 0);
    bool have_ref = false;
    for (ProcessId p = 0; p < static_cast<ProcessId>(config_.cluster_n); ++p) {
      if (!host_.alive(p)) continue;
      std::vector<const KvStore*> stores;
      for (int g = 0; g < shard_count; ++g) {
        stores.push_back(&host_.replicas[p]->group(g).store());
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
      for (const ClientLoad& load : loads_) {
        for (const std::string& token : load.acked_tokens) {
          if (census.find(token) == census.end()) {
            fail("replica " + std::to_string(p) + ": acked token " + token +
                 " missing (lost write)");
          }
        }
      }
    }
    if (!have_ref) fail("no alive replica to audit");
  }

  const LoadgenConfig& config_;
  Host& host_;
  const KeyPicker picker_;
  const ShardMap route_map_;
  const TimePoint load_end_;
  const TimePoint measure_from_;
  std::vector<ClientLoad> loads_;
  /// Ops submitted and not yet completed; read by the draining thread.
  std::atomic<std::int64_t> outstanding_{0};
  std::mutex hist_mu_;  ///< guards hist_ across client threads
  HistoryWriter hist_;
};

}  // namespace

std::string loadgen_unsupported(const LoadgenConfig& config,
                                const LoadgenHost& host) {
  if (!host.udp) return "";
  if (config.crash_leader_at > 0) return "crash_leader_at";
  if (!config.artifacts_prefix.empty()) return "artifacts_prefix";
  return "";
}

LoadgenResult run_loadgen(const LoadgenConfig& config,
                          const LoadgenHost& host) {
  const std::string unsupported = loadgen_unsupported(config, host);
  if (!unsupported.empty()) {
    throw std::invalid_argument("the UDP host cannot honour LoadgenConfig::" +
                                unsupported);
  }
  const ClusterConfigs configs = cluster_configs(config, host.udp);
  if (host.udp) {
    UdpHost udp(config, configs, host);
    return Workload(config, udp, "lls_loadgen/udp").run();
  }
  SimHost sim(config, configs);
  return Workload(config, sim, "lls_loadgen/sim").run();
}

}  // namespace lls
