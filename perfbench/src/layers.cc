#include "layers.h"

#include "codec_probe.h"

namespace perfbench {

double per(double num, double den) { return den > 0 ? num / den : 0; }

void LayerFigures::emit(Report& report, bool sockets) const {
  report.layer("sim.events_per_op", sim_events_per_op, "events/op");
  report.layer("sim.self_ns_per_event", sim_self_ns_per_event, "ns/event");
  report.layer("net.msgs_per_op.omega", msgs_per_op_omega, "msgs/op");
  report.layer("net.msgs_per_op.consensus", msgs_per_op_consensus, "msgs/op");
  report.layer("net.msgs_per_op.client", msgs_per_op_client, "msgs/op");
  report.layer("net.bytes_per_msg", bytes_per_msg, "B/msg");
  report.layer("net.decode_ns.consensus", decode_ns_consensus, "ns/msg");
  report.layer("net.decode_ns.client", decode_ns_client, "ns/msg");
  report.layer("common.allocs_per_op", allocs_per_op, "allocs/op");
  report.layer("runtime.pool_hit_ratio", pool_hit_ratio, "ratio");
  report.layer("omega.leader_changes", leader_changes, "count");
  report.layer("omega.reelect_ms", reelect_ms, "ms");
  report.layer("consensus.msgs_per_decision", msgs_per_decision,
               "msgs/decision");
  report.layer("consensus.decide_share", decide_share, "ratio");
  report.layer("consensus.post_crash_msgs_per_s", post_crash_msgs_per_s,
               "msgs/s");
  report.layer("consensus.ops_per_decision", ops_per_decision, "ops/decision");
  report.layer("consensus.busy_us_per_op", consensus_busy_us_per_op, "us/op");
  report.layer("rsm.busy_us_per_op", rsm_busy_us_per_op, "us/op");
  report.layer("rsm.busy_replies_per_op", busy_replies_per_op, "msgs/op");
  report.layer("rsm.local_read_ratio", local_read_ratio, "ratio");
  report.layer("client.retries_per_op", retries_per_op, "count/op");
  report.layer("client.redirects_per_op", redirects_per_op, "count/op");
  report.layer("client.pack", pack, "requests/msg");
  report.layer("trace.overhead_ratio", overhead_ratio, "ratio");
  if (!sockets) return;
  report.layer("client.gen_late_us.p99", gen_late_us_p99, "us");
  report.layer("runtime.busy_frac.leader", busy_frac_leader, "ratio");
  report.layer("runtime.busy_frac.follower", busy_frac_follower, "ratio");
  report.layer("runtime.busy_frac.client", busy_frac_client, "ratio");
  report.layer("runtime.dgrams_per_syscall.send", dgrams_per_send,
               "dgrams/call");
  report.layer("runtime.dgrams_per_syscall.recv", dgrams_per_recv,
               "dgrams/call");
  report.layer("runtime.loss_ratio", loss_ratio, "ratio");
  report.layer("runtime.timer_late_us.p99", timer_late_us_p99, "us");
}

void add_probe_figures(LayerFigures& f, const std::vector<ProbeStats>& probes,
                       const ProbeTotals& window, std::size_t leader,
                       const ClusterCounts& c) {
  const double consensus = window.in(Layer::kConsensus);
  f.msgs_per_op_omega = per(window.in(Layer::kOmega), c.acked);
  f.msgs_per_op_consensus = per(consensus, c.acked);
  f.msgs_per_op_client = per(window.in(Layer::kClient), c.acked);
  f.bytes_per_msg = per(static_cast<double>(window.bytes), window.all_msgs());
  f.decode_ns_consensus = decode_ns(merged_samples(probes, Layer::kConsensus));
  f.decode_ns_client = decode_ns(merged_samples(probes, Layer::kClient));
  f.msgs_per_decision = per(consensus, c.decisions);
  f.decide_share = per(static_cast<double>(window.decide), consensus);
  f.ops_per_decision = per(c.acked - c.reads_local, c.decisions);
  const auto handler_us = [&](Layer l) {
    return static_cast<double>(
               probes[leader].handler_ns[static_cast<std::size_t>(l)]) /
           1e3;
  };
  f.consensus_busy_us_per_op = per(handler_us(Layer::kConsensus), c.acked);
  f.rsm_busy_us_per_op = per(handler_us(Layer::kClient), c.acked);
  f.busy_replies_per_op = per(c.busy_replies, c.acked);
  f.local_read_ratio = per(c.reads_local, c.reads_local + c.reads_ordered);
  f.retries_per_op = per(c.retries, c.acked);
  f.redirects_per_op = per(c.redirects, c.acked);
  const auto requests = static_cast<double>(window.client_requests);
  f.pack = per(requests + c.batched_requests,
               requests + static_cast<double>(window.client_batches));
  f.timer_late_us_p99 = merged_timer_lateness(probes).percentile(99);
}

}  // namespace perfbench
