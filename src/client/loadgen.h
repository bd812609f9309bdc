// Workload driver for the client subsystem: many ClusterClient sessions
// against a replicated KV cluster, with open- or closed-loop arrival, key
// skew, a read/write mix, latency percentiles and an optional exactly-once
// audit under an injected leader crash.
//
// One driver serves two hosts (LoadgenHost): the deterministic simulator,
// where a run is a pure function of LoadgenConfig (including the seed) and
// every number and audit violation replays bit-for-bit, and UDP sockets on
// loopback, where the same actors run one loop thread per process and the
// clock is the wall clock. Both measure the same window with the same code.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace lls {

struct LoadgenConfig {
  int cluster_n = 5;  ///< replicas, at process ids [0, cluster_n)
  int clients = 8;    ///< client sessions, at ids [cluster_n, cluster_n+clients)

  /// Closed loop (default): each client keeps `closed_outstanding` requests
  /// in flight, issuing the next on each completion — throughput is
  /// whatever the cluster sustains. Open loop: each client submits at
  /// `open_rate` requests/second regardless of completions, so admission
  /// control (BUSY) and queueing become visible.
  bool open_loop = false;
  int closed_outstanding = 1;
  double open_rate = 200.0;  ///< per-client, requests/second

  int keys = 64;             ///< key space size ("k0".."k<keys-1>")
  double zipf = 0.0;         ///< key skew exponent; 0 = uniform
  /// Fraction of requests that mutate: a kPut of `value_size` bytes, or in
  /// verify mode a kAppend of one unique token.
  double write_ratio = 0.5;
  std::size_t value_size = 16;

  std::uint64_t seed = 1;

  TimePoint start = 2 * kSecond;   ///< load begins (lets election settle)
  /// Ops invoked before start + warmup are excluded from latency and
  /// throughput; so are ops invoked after the load window.
  Duration warmup = 1 * kSecond;
  Duration duration = 10 * kSecond;  ///< load window length
  Duration drain = 20 * kSecond;     ///< max extra time to drain in-flight

  // Replica knobs under test.
  std::size_t max_batch = 1;
  Duration batch_flush_delay = 2 * kMillisecond;
  std::size_t admit_high_water = 1024;

  /// Sharding: number of consensus groups per replica process (M >= 1).
  /// Every replica is a shard/BasicShardedReplica: M groups behind one
  /// shared Omega, with shard-aware clients. M = 1 is the unsharded replica
  /// (group 0 travels without an envelope), so M=1 vs M=4 is an
  /// apples-to-apples scaling comparison.
  int shards = 1;

  /// Per-group proposer pipelining window (LogConsensusConfig::max_inflight);
  /// 0 = unbounded. A finite window makes per-group throughput
  /// window-limited, which is what lets shard counts scale aggregate
  /// throughput in the sim's latency-bound regime (see EXPERIMENTS.md C5).
  std::size_t consensus_max_inflight = 0;

  // Client knobs.
  Duration attempt_timeout = 120 * kMillisecond;
  Duration request_deadline = 0;  ///< 0 = retry forever
  /// Coalesce same-destination client sends into request batches.
  bool coalesce = true;

  /// Leader leases: reads are submitted via ClusterClient::get() marked
  /// read-only, replicas run the lease protocol (fence grants on supporting
  /// replies, quorum-supported lease_valid()) and the leader answers reads
  /// from local state while its lease holds — zero consensus instances per
  /// local read. Off reproduces the ordered-everything baseline.
  bool lease_reads = false;
  /// Lease window (consensus fence duration and the omega hint horizon).
  Duration lease_duration = 200 * kMillisecond;
  /// Conservative clock slack subtracted from remote support. 0 is exact on
  /// the simulator (one global clock); the UDP host raises it to at least
  /// 5 ms, since real clocks drift.
  Duration lease_clock_margin = 0;

  /// Crash whatever the cluster believes is the leader at this virtual
  /// time (0 disables). The load must ride through the failover. Sim only.
  TimePoint crash_leader_at = 0;

  /// Exactly-once audit: writes become appends of per-request unique
  /// tokens; at the end every acked token must appear exactly once on
  /// every alive replica, no token twice, and all stores must agree.
  bool verify = false;

  /// When non-empty, the run dumps its observability plane as artifacts:
  /// `<prefix>.prom` (Prometheus text), `<prefix>.json` (metrics snapshot)
  /// and `<prefix>.trace.jsonl` (control-plane event trace, including
  /// election-stabilization spans and per-instance consensus spans). Sim
  /// only: each UDP node has its own plane, scraped live via stats_port.
  std::string artifacts_prefix;

  /// When non-empty, the run records every client op to this `.hist` file
  /// (streaming: invocations at submit, responses as they complete; timed-out
  /// ops stay pending), ready for offline checking with `lls_check`. Times
  /// come from the host clock, stamped before submit and at completion, so
  /// every recorded interval contains the true one.
  std::string hist_path;
};

struct LoadgenResult {
  // Volume (whole run).
  std::uint64_t submitted = 0;
  std::uint64_t acked = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;
  std::uint64_t redirects = 0;
  std::uint64_t busy_replies = 0;
  std::uint64_t target_rotations = 0;

  // Latency over acked ops invoked in [start + warmup, start + duration),
  // milliseconds.
  double p50_ms = 0, p90_ms = 0, p99_ms = 0, mean_ms = 0, max_ms = 0;
  /// Those ops per second of that window.
  double throughput = 0;

  /// Per-op-class breakdown over the measured window: reads (kGet) and
  /// writes (everything that mutates) get separate latency percentiles and
  /// message economy, which is what makes the lease read path visible — a
  /// leased read completes in one client round trip with ~0 consensus
  /// messages while writes still pay the ordered path.
  struct OpStats {
    std::uint64_t acked = 0;
    double throughput = 0;
    double p50_ms = 0, p90_ms = 0, p99_ms = 0, mean_ms = 0, max_ms = 0;
    /// Consensus-class messages attributed to one op of this class (reads
    /// split local/ordered by the replicas' own counters; local reads cost
    /// zero consensus messages by construction). Sim only.
    std::optional<double> consensus_msgs_per_op;
  };
  OpStats reads;
  OpStats writes;

  // Lease read path (summed over alive replicas, whole run).
  std::uint64_t reads_local = 0;    ///< Gets answered from a held lease
  std::uint64_t reads_ordered = 0;  ///< read-only Gets that missed the lease
  /// reads_local / (reads_local + reads_ordered); 0 when leases are off.
  double lease_read_ratio = 0;

  // Message economy by class (whole run). Only the simulator's network
  // counts messages by type; a UDP node counts datagrams, so on UDP these
  // are empty.
  std::optional<std::uint64_t> omega_msgs;
  std::optional<std::uint64_t> consensus_msgs;
  std::optional<std::uint64_t> client_msgs;
  /// Consensus-class messages per acked command — the batching dividend.
  std::optional<double> consensus_msgs_per_cmd;
  std::optional<double> total_msgs_per_cmd;

  // Datagram plane, summed over every node (replicas and clients). UDP
  // only: empty on the simulator.
  std::optional<std::uint64_t> datagrams_sent;
  std::optional<std::uint64_t> datagrams_received;
  std::optional<std::uint64_t> malformed_dropped;
  std::optional<std::uint64_t> sendmmsg_calls;
  std::optional<std::uint64_t> recvmmsg_calls;
  std::optional<std::uint64_t> pool_hits;
  std::optional<std::uint64_t> pool_misses;

  /// Omega leader changes summed over the replicas, whole run: every
  /// replica's first leader counts, so a run without flaps reads about n.
  std::uint64_t leader_changes = 0;

  // Replica-side accounting (summed over replicas).
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t dup_proposals_suppressed = 0;
  std::uint64_t cached_replies = 0;
  std::uint64_t busy_sent = 0;

  // Client coalescing (whole run; a batch is a wire message carrying >= 2
  // requests).
  std::uint64_t client_batches = 0;
  std::uint64_t client_batched_requests = 0;

  // Consensus economy. Decisions are decided log instances summed over
  // groups (no-op fillers included), taken as the max view across alive
  // replicas per group.
  std::uint64_t consensus_decisions = 0;
  std::optional<double> consensus_msgs_per_decision;  ///< sim only

  /// Per-shard breakdown over the measured window (size = shard count).
  /// Zipf-skewed keyspaces show up here as hot shards.
  struct ShardStats {
    std::uint64_t acked = 0;
    double throughput = 0;
    double p50_ms = 0, p99_ms = 0;
  };
  std::vector<ShardStats> shard_stats;
  /// Hot-shard metric: max/mean measured ops per shard (1.0 = balanced,
  /// 0 when nothing completed).
  double shard_imbalance = 0;
  /// Group envelopes rejected by replicas (bad shard id / inner type).
  std::uint64_t envelopes_rejected = 0;

  ProcessId crashed = kNoProcess;  ///< leader killed, or kNoProcess
  bool drained = false;  ///< all clients idle before the drain deadline

  bool verify_ok = true;  ///< true when !config.verify or audit passed
  std::vector<std::string> verify_errors;
};

/// Where run_loadgen runs the cluster.
struct LoadgenHost {
  /// false: the deterministic simulator. true: one UdpNode (socket and loop
  /// thread) per replica and client, on 127.0.0.1.
  bool udp = false;
  std::uint16_t udp_base_port = 47400;  ///< process p binds base + p
  std::uint16_t stats_port = 0;  ///< replica 0 serves /metrics here; 0 = off
};

/// Names the first LoadgenConfig field `host` cannot honour, or returns ""
/// when it honours them all.
std::string loadgen_unsupported(const LoadgenConfig& config,
                                const LoadgenHost& host);

/// Runs the workload on `host`. On the simulator the result is a pure
/// function of `config`. Throws std::invalid_argument when
/// loadgen_unsupported() is not empty.
LoadgenResult run_loadgen(const LoadgenConfig& config,
                          const LoadgenHost& host = {});

}  // namespace lls
