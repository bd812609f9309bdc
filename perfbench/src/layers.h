// The per-layer figures of a traced run, emitted in one fixed order. A
// layer the workload bypasses keeps 0; the socket-runtime figures are
// emitted only by the workloads that run sockets.
#pragma once

#include <cstddef>
#include <vector>

#include "probe.h"
#include "report.h"

namespace perfbench {

struct LayerFigures {
  double sim_events_per_op = 0;
  double sim_self_ns_per_event = 0;
  double msgs_per_op_omega = 0;
  double msgs_per_op_consensus = 0;
  double msgs_per_op_client = 0;
  double bytes_per_msg = 0;
  double decode_ns_consensus = 0;
  double decode_ns_client = 0;
  double allocs_per_op = 0;
  double pool_hit_ratio = 0;
  double leader_changes = 0;
  double reelect_ms = 0;
  double msgs_per_decision = 0;
  double decide_share = 0;
  double post_crash_msgs_per_s = 0;
  double ops_per_decision = 0;
  double consensus_busy_us_per_op = 0;
  double rsm_busy_us_per_op = 0;
  double busy_replies_per_op = 0;
  double local_read_ratio = 0;
  double retries_per_op = 0;
  double redirects_per_op = 0;
  double pack = 0;
  double overhead_ratio = 0;
  // Socket runtime (UDP workloads) only.
  double gen_late_us_p99 = 0;
  double busy_frac_leader = 0;
  double busy_frac_follower = 0;
  double busy_frac_client = 0;
  double dgrams_per_send = 0;
  double dgrams_per_recv = 0;
  double loss_ratio = 0;
  double timer_late_us_p99 = 0;

  /// Adds the figures to the report's per-layer group, the socket-runtime
  /// ones only when `sockets` is set.
  void emit(Report& report, bool sockets) const;
};

/// Cluster-wide counters the probe figures are divided by.
struct ClusterCounts {
  double acked = 0;
  double decisions = 0;
  double reads_local = 0;
  double reads_ordered = 0;
  double retries = 0;
  double redirects = 0;
  double batched_requests = 0;
  double busy_replies = 0;
};

/// Fills the figures every workload takes the same way from its probes:
/// traffic per op and per message over `window`, the codec replay, the
/// consensus economy, the handler time of process `leader`, the client and
/// replica counters, and timer lateness.
void add_probe_figures(LayerFigures& f, const std::vector<ProbeStats>& probes,
                       const ProbeTotals& window, std::size_t leader,
                       const ClusterCounts& c);

/// num / den, or 0 when den is 0.
double per(double num, double den);

}  // namespace perfbench
