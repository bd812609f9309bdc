// lls_loadgen: workload driver for the client subsystem.
//
// Drives a fleet of ClusterClient sessions against a replicated KV cluster
// and reports throughput, latency percentiles and message economy, through
// one driver (run_loadgen) on either host:
//
//   * the deterministic simulator (default) — reproducible runs, optional
//     leader-crash injection and observability artifacts;
//   * the UDP runtime (--udp) — the same actors over real sockets on
//     loopback, wall-clock timed.
//
// Both hosts count the same ops (invoked in [start + warmup, end)) and
// write the same JSON schema; a field a host cannot measure is null.
// --batches and --shards take lists and run every combination; --out writes
// the result set (tools/run_bench.sh -> BENCH_client.json); --artifacts
// dumps the sim's observability plane (Prometheus text, JSON snapshot,
// control-plane trace).
//
// Examples:
//   lls_loadgen --mode=closed --clients=64 --crash-leader-at-ms=5000 --verify
//   lls_loadgen --batches=1,8,32 --out=BENCH_client.json
//   lls_loadgen --artifacts=loadgen --verify
//   lls_loadgen --udp --shards=1,2,4 --verify --stats-port=9464
#include <cstdio>
#include <ctime>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/loadgen.h"
#include "flags.h"

using namespace lls;
using namespace lls::bench;

namespace {

struct CliOptions {
  LoadgenConfig load;
  LoadgenHost host;
  std::vector<std::size_t> batches{1};
  std::vector<int> shards{1};
  std::string json_path;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --mode=closed|open         arrival process (default closed)\n"
      "  --n=N                      replicas (default 5)\n"
      "  --clients=C                client sessions (default 8)\n"
      "  --outstanding=K            closed loop: in-flight ops per client\n"
      "  --rate=R                   open loop: per-client ops/sec\n"
      "  --keys=K --zipf=S          key space and skew (zipf 0 = uniform)\n"
      "  --write-ratio=F            fraction of mutating ops (default 0.5)\n"
      "  --value-size=B             written value bytes\n"
      "  --batches=1,8,32           replica max_batch sweep\n"
      "  --shards=1,2,4             consensus groups per replica, swept like\n"
      "                             --batches (default 1; each >= 1)\n"
      "  --max-inflight=W           per-group proposer pipeline window\n"
      "                             (default 0 = unbounded)\n"
      "  --no-coalesce              one wire message per client attempt\n"
      "  --lease-reads              leader leases: reads go through the\n"
      "                             read-only fast path (local answers\n"
      "                             under a quorum-supported lease)\n"
      "  --lease-duration-ms=D      lease window (default 200)\n"
      "  --lease-clock-margin-ms=M  clock slack subtracted from remote\n"
      "                             support (default 0; udp raises it to 5)\n"
      "  --duration-ms=D --warmup-ms=W --drain-ms=X\n"
      "                             ops invoked before start+W or after the\n"
      "                             D-long load window are not measured\n"
      "  --verify                   exactly-once audit (writes append tokens)\n"
      "  --hist=PATH                record the client op history as a .hist\n"
      "                             file for offline lls_check (with a\n"
      "                             sweep the last run wins)\n"
      "  --seed=S\n"
      "  --out=PATH                 write results as JSON (--json= alias)\n"
      "  --udp [--udp-base-port=P]  run over UDP sockets instead of the sim\n"
      "  --stats-port=P             udp: replica 0 serves /metrics on P\n"
      "sim only (exit 2 with --udp):\n"
      "  --crash-leader-at-ms=T     kill the leader at virtual time T\n"
      "  --artifacts=PREFIX         dump PREFIX.prom / .json / .trace.jsonl\n"
      "                             observability artifacts\n",
      argv0);
}

Duration ms_flag(Flags& flags, const char* name, Duration fallback) {
  return static_cast<Duration>(flags.u64(
             name, static_cast<std::uint64_t>(fallback / kMillisecond))) *
         kMillisecond;
}

bool parse_args(int argc, char** argv, CliOptions* opt) {
  Flags flags(argc, argv);
  if (flags.help()) {
    usage(argv[0]);
    std::exit(0);
  }
  LoadgenConfig& load = opt->load;
  std::string mode = flags.str("mode", "closed");
  if (mode == "closed") {
    load.open_loop = false;
  } else if (mode == "open") {
    load.open_loop = true;
  } else {
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return false;
  }
  load.cluster_n = static_cast<int>(flags.i64("n", load.cluster_n));
  load.clients = static_cast<int>(flags.i64("clients", load.clients));
  load.closed_outstanding = static_cast<int>(
      flags.i64("outstanding", load.closed_outstanding));
  load.open_rate = flags.f64("rate", load.open_rate);
  load.keys = static_cast<int>(flags.i64("keys", load.keys));
  load.zipf = flags.f64("zipf", load.zipf);
  load.write_ratio = flags.f64("write-ratio", load.write_ratio);
  load.value_size =
      static_cast<std::size_t>(flags.u64("value-size", load.value_size));
  opt->batches.clear();
  for (std::uint64_t b : flags.u64_list("batches", {1})) {
    opt->batches.push_back(static_cast<std::size_t>(b));
  }
  opt->shards.clear();
  for (std::uint64_t m : flags.u64_list("shards", {1})) {
    opt->shards.push_back(static_cast<int>(m));
  }
  load.duration = ms_flag(flags, "duration-ms", load.duration);
  load.warmup = ms_flag(flags, "warmup-ms", load.warmup);
  load.drain = ms_flag(flags, "drain-ms", load.drain);
  load.crash_leader_at = ms_flag(flags, "crash-leader-at-ms", 0);
  load.consensus_max_inflight = static_cast<std::size_t>(
      flags.u64("max-inflight", load.consensus_max_inflight));
  load.coalesce = !flags.flag("no-coalesce");
  load.lease_reads = flags.flag("lease-reads");
  load.lease_duration =
      ms_flag(flags, "lease-duration-ms", load.lease_duration);
  load.lease_clock_margin = ms_flag(flags, "lease-clock-margin-ms", 0);
  load.verify = flags.flag("verify");
  load.artifacts_prefix = flags.str("artifacts");
  load.hist_path = flags.str("hist");
  load.seed = flags.u64("seed", load.seed);
  opt->json_path = flags.out();
  opt->host.udp = flags.flag("udp");
  opt->host.udp_base_port = static_cast<std::uint16_t>(
      flags.u64("udp-base-port", opt->host.udp_base_port));
  opt->host.stats_port = static_cast<std::uint16_t>(flags.u64("stats-port", 0));
  if (!flags.ok()) {
    flags.report(stderr);
    return false;
  }
  if (load.cluster_n < 1 || load.clients < 1) {
    std::fprintf(stderr, "--n and --clients must be positive\n");
    return false;
  }
  if (load.open_loop && !(load.open_rate > 0)) {
    std::fprintf(stderr, "--rate must be positive\n");
    return false;
  }
  const std::string unsupported = loadgen_unsupported(load, opt->host);
  if (!unsupported.empty()) {
    std::fprintf(stderr,
                 "--udp cannot honour LoadgenConfig::%s (sim only; see "
                 "--help)\n",
                 unsupported.c_str());
    return false;
  }
  return true;
}

template <typename T>
void put(Json& json, const char* key, const std::optional<T>& v) {
  json.key(key);
  if (v) {
    json.value(*v);
  } else {
    json.null();
  }
}

/// The checkout's commit, suffixed "-dirty" when the tree has uncommitted
/// changes; empty outside a git checkout.
std::optional<std::string> git_sha() {
  std::FILE* pipe = ::popen("git -C '" LLS_SOURCE_DIR
                            "' describe --always --dirty --abbrev=40 "
                            "2>/dev/null",
                            "r");
  if (pipe == nullptr) return std::nullopt;
  char buf[128] = {};
  std::string sha;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
  ::pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.empty()) return std::nullopt;
  return sha;
}

std::string utc_date() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  ::gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void begin_json(Json& json, const CliOptions& opt) {
  const LoadgenConfig& load = opt.load;
  json.begin_object();
  json.key("tool").value("lls_loadgen");
  json.key("host").value(opt.host.udp ? "udp" : "sim");
  put(json, "git_sha", git_sha());
  json.key("build_type").value(LLS_BUILD_TYPE);
  json.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("date").value(utc_date());
  json.key("config").begin_object();
  json.key("n").value(load.cluster_n);
  json.key("clients").value(load.clients);
  json.key("mode").value(load.open_loop ? "open" : "closed");
  json.key("outstanding").value(load.closed_outstanding);
  json.key("rate").value(load.open_rate);
  json.key("keys").value(load.keys);
  json.key("zipf").value(load.zipf);
  json.key("write_ratio").value(load.write_ratio);
  json.key("value_size").value(load.value_size);
  json.key("seed").value(load.seed);
  json.key("start_ms").value(load.start / kMillisecond);
  json.key("warmup_ms").value(load.warmup / kMillisecond);
  json.key("duration_ms").value(load.duration / kMillisecond);
  json.key("crash_leader_at_ms").value(load.crash_leader_at / kMillisecond);
  json.key("verify").value(load.verify);
  json.key("max_inflight").value(load.consensus_max_inflight);
  json.key("coalesce").value(load.coalesce);
  json.key("lease_reads").value(load.lease_reads);
  json.key("lease_duration_ms").value(load.lease_duration / kMillisecond);
  json.key("lease_clock_margin_ms")
      .value(load.lease_clock_margin / kMillisecond);
  json.end_object();
  json.key("runs").begin_array();
}

void emit_run_json(Json& json, std::size_t batch, int shards,
                   const LoadgenResult& r) {
  json.begin_object();
  json.key("batch").value(batch);
  json.key("shards").value(shards);
  json.key("throughput_ops_s").value(r.throughput);
  json.key("p50_ms").value(r.p50_ms);
  json.key("p90_ms").value(r.p90_ms);
  json.key("p99_ms").value(r.p99_ms);
  json.key("mean_ms").value(r.mean_ms);
  json.key("max_ms").value(r.max_ms);
  json.key("submitted").value(r.submitted);
  json.key("acked").value(r.acked);
  json.key("timed_out").value(r.timed_out);
  json.key("retries").value(r.retries);
  json.key("redirects").value(r.redirects);
  json.key("busy_replies").value(r.busy_replies);
  json.key("target_rotations").value(r.target_rotations);
  json.key("leader_changes").value(r.leader_changes);
  put(json, "omega_msgs", r.omega_msgs);
  put(json, "consensus_msgs", r.consensus_msgs);
  put(json, "client_msgs", r.client_msgs);
  put(json, "consensus_msgs_per_cmd", r.consensus_msgs_per_cmd);
  put(json, "total_msgs_per_cmd", r.total_msgs_per_cmd);
  put(json, "datagrams_sent", r.datagrams_sent);
  put(json, "datagrams_received", r.datagrams_received);
  put(json, "malformed_dropped", r.malformed_dropped);
  put(json, "sendmmsg_calls", r.sendmmsg_calls);
  put(json, "recvmmsg_calls", r.recvmmsg_calls);
  put(json, "pool_hits", r.pool_hits);
  put(json, "pool_misses", r.pool_misses);
  json.key("duplicates_suppressed").value(r.duplicates_suppressed);
  json.key("dup_proposals_suppressed").value(r.dup_proposals_suppressed);
  json.key("cached_replies").value(r.cached_replies);
  json.key("busy_sent").value(r.busy_sent);
  json.key("client_batches").value(r.client_batches);
  json.key("client_batched_requests").value(r.client_batched_requests);
  json.key("consensus_decisions").value(r.consensus_decisions);
  put(json, "consensus_msgs_per_decision", r.consensus_msgs_per_decision);
  json.key("envelopes_rejected").value(r.envelopes_rejected);
  auto op_json = [&](const char* name, const LoadgenResult::OpStats& st) {
    json.key(name).begin_object();
    json.key("acked").value(st.acked);
    json.key("throughput_ops_s").value(st.throughput);
    json.key("p50_ms").value(st.p50_ms);
    json.key("p90_ms").value(st.p90_ms);
    json.key("p99_ms").value(st.p99_ms);
    json.key("mean_ms").value(st.mean_ms);
    put(json, "consensus_msgs_per_op", st.consensus_msgs_per_op);
    json.end_object();
  };
  op_json("reads", r.reads);
  op_json("writes", r.writes);
  json.key("reads_local").value(r.reads_local);
  json.key("reads_ordered").value(r.reads_ordered);
  json.key("lease_read_ratio").value(r.lease_read_ratio);
  json.key("shard_imbalance").value(r.shard_imbalance);
  json.key("per_shard").begin_array();
  for (std::size_t g = 0; g < r.shard_stats.size(); ++g) {
    const auto& s = r.shard_stats[g];
    json.begin_object();
    json.key("shard").value(g);
    json.key("acked").value(s.acked);
    json.key("throughput_ops_s").value(s.throughput);
    json.key("p50_ms").value(s.p50_ms);
    json.key("p99_ms").value(s.p99_ms);
    json.end_object();
  }
  json.end_array();
  json.key("crashed_leader")
      .value(static_cast<std::int64_t>(r.crashed == kNoProcess ? -1 : r.crashed));
  json.key("drained").value(r.drained);
  json.key("verify_ok").value(r.verify_ok);
  json.key("verify_errors").begin_array();
  for (const auto& e : r.verify_errors) json.value(e);
  json.end_array();
  json.end_object();
}

template <typename T>
std::string cell(const std::optional<T>& v, const char* fmt) {
  return v ? format(fmt, *v) : std::string("-");
}

int run(const CliOptions& opt) {
  std::printf(
      "lls_loadgen (%s): n=%d clients=%d mode=%s seed=%llu%s%s%s\n\n",
      opt.host.udp ? "udp" : "sim", opt.load.cluster_n, opt.load.clients,
      opt.load.open_loop ? "open" : "closed",
      (unsigned long long)opt.load.seed,
      opt.load.crash_leader_at > 0 ? " +leader-crash" : "",
      opt.load.verify ? " +verify" : "",
      opt.load.lease_reads ? " +lease-reads" : "");

  Table table({"batch", "shards", "acked", "ops/s", "p50(ms)", "p99(ms)",
               "retries", "redirects", "leader chg", "cmsg/cmd",
               "dgrams/syscall", "verify"});
  // Per-op-class split: two rows per run. `local` is the fraction of
  // admitted reads a leaseholder answered from local state.
  Table op_table({"batch", "shards", "op", "acked", "ops/s", "p50(ms)",
                  "p90(ms)", "p99(ms)", "cmsg/op", "local"});
  Json json;
  begin_json(json, opt);

  bool verified = true;
  bool progressed = true;
  LoadgenHost host = opt.host;
  for (std::size_t batch : opt.batches) {
    for (int shards : opt.shards) {
      LoadgenConfig cfg = opt.load;
      cfg.max_batch = batch;
      cfg.shards = shards;
      LoadgenResult r = run_loadgen(cfg, host);
      // Fresh ports per run: no reliance on immediate rebind, and no stray
      // datagram from one run reaches the next.
      host.udp_base_port = static_cast<std::uint16_t>(
          host.udp_base_port + cfg.cluster_n + cfg.clients + 8);
      verified = verified && r.verify_ok;
      progressed = progressed && r.acked > 0;
      std::optional<double> per_syscall;
      if (r.sendmmsg_calls && *r.sendmmsg_calls > 0) {
        per_syscall = static_cast<double>(*r.datagrams_sent) /
                      static_cast<double>(*r.sendmmsg_calls);
      }
      table.add_row({format("%zu", batch), format("%d", shards),
                     format("%llu", (unsigned long long)r.acked),
                     format("%.0f", r.throughput), format("%.2f", r.p50_ms),
                     format("%.2f", r.p99_ms),
                     format("%llu", (unsigned long long)r.retries),
                     format("%llu", (unsigned long long)r.redirects),
                     format("%llu", (unsigned long long)r.leader_changes),
                     cell(r.consensus_msgs_per_cmd, "%.2f"),
                     cell(per_syscall, "%.1f"),
                     !cfg.verify ? "-" : (r.verify_ok ? "ok" : "FAIL")});
      for (const auto& e : r.verify_errors) {
        std::fprintf(stderr, "verify: %s\n", e.c_str());
      }
      if (r.shard_stats.size() > 1) {
        std::printf("batch=%zu shards=%d per-shard breakdown (imbalance "
                    "%.2f):\n",
                    batch, shards, r.shard_imbalance);
        for (std::size_t g = 0; g < r.shard_stats.size(); ++g) {
          const auto& s = r.shard_stats[g];
          std::printf("  shard %zu: acked %llu  %.0f ops/s  p50 %.2f ms  "
                      "p99 %.2f ms\n",
                      g, (unsigned long long)s.acked, s.throughput, s.p50_ms,
                      s.p99_ms);
        }
      }
      auto op_row = [&](const char* op, const LoadgenResult::OpStats& st,
                        const std::string& local) {
        op_table.add_row({format("%zu", batch), format("%d", shards), op,
                          format("%llu", (unsigned long long)st.acked),
                          format("%.0f", st.throughput),
                          format("%.2f", st.p50_ms), format("%.2f", st.p90_ms),
                          format("%.2f", st.p99_ms),
                          cell(st.consensus_msgs_per_op, "%.2f"), local});
      };
      op_row("read", r.reads,
             cfg.lease_reads ? format("%.0f%%", 100.0 * r.lease_read_ratio)
                             : "-");
      op_row("write", r.writes, "-");
      emit_run_json(json, batch, shards, r);
    }
  }
  json.end_array();
  json.end_object();
  table.print();
  std::printf("\nby op class:\n");
  op_table.print();

  bool ok = verified && progressed;
  if (!opt.json_path.empty() && !write_json_file(opt.json_path, json)) {
    ok = false;
  }
  if (!verified) std::printf("\nFAIL: exactly-once audit reported violations\n");
  if (!progressed) std::printf("\nFAIL: a run acked no op\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parse_args(argc, argv, &opt)) {
    usage(argv[0]);
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lls_loadgen: %s\n", e.what());
    return 1;
  }
}
