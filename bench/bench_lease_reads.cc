// C6 — Extension: leader leases and the zero-consensus read fast path.
//
// Beyond the paper: a quorum-anchored leader lease (DESIGN.md §14) lets the
// leader answer read-only Gets from local state — zero consensus instances
// and zero consensus-class messages per read — while writes still pay the
// ordered path. This bench runs the client workload driver over a
// read-heavy mix with leases off (every Get is ordered through the log)
// and on (Gets ride the lease), then sweeps the read share to show where
// the dividend comes from.
//
// Guards: the lease run must serve the overwhelming share of reads locally
// at ~0 consensus messages per read, the ordered baseline must NOT be free
// (else the comparison is vacuous), and write throughput must not regress
// — the lease machinery rides existing traffic and costs writers nothing.
#include <cstdio>

#include "bench_util.h"
#include "client/loadgen.h"

using namespace lls;
using namespace lls::bench;

namespace {

LoadgenConfig base_config(double write_ratio, bool lease_reads) {
  LoadgenConfig config;
  config.cluster_n = 5;
  config.clients = 8;
  config.closed_outstanding = 2;
  config.keys = 32;
  config.write_ratio = write_ratio;
  config.seed = 42;
  config.duration = 10 * kSecond;
  config.lease_reads = lease_reads;
  config.lease_duration = 200 * kMillisecond;
  return config;
}

void add_row(Table& table, const char* label, const LoadgenResult& r) {
  table.add_row({label,
                 format("%llu", (unsigned long long)r.reads.acked),
                 format("%llu", (unsigned long long)r.writes.acked),
                 format("%.0f%%", 100.0 * r.lease_read_ratio),
                 format("%.2f", *r.reads.consensus_msgs_per_op),
                 format("%.2f", *r.writes.consensus_msgs_per_op),
                 format("%.2f", r.reads.p50_ms),
                 format("%.2f", r.writes.p50_ms),
                 format("%.0f", r.throughput)});
}

}  // namespace

int main() {
  banner("C6 — leader leases: the zero-consensus read fast path",
         "leased reads answer locally; writes still pay the ordered path");

  // Section 1: head-to-head at a 90% read mix.
  LoadgenResult off = run_loadgen(base_config(0.1, false));
  LoadgenResult on = run_loadgen(base_config(0.1, true));
  Table table({"leases", "reads", "writes", "local", "cmsg/read",
               "cmsg/write", "read p50(ms)", "write p50(ms)", "ops/s"});
  add_row(table, "off", off);
  add_row(table, "on", on);
  table.print();
  std::printf(
      "\nExpectation: with leases on, ~all reads are local and pay ~0\n"
      "consensus messages; the ordered baseline pays the full Θ(n) quorum\n"
      "cost on every read.\n");

  // Section 2: the dividend grows with the read share.
  std::printf("\nRead-share sweep (leases on):\n\n");
  Table sweep({"write ratio", "local", "cmsg/read", "cmsg/op(all)",
               "ops/s"});
  for (double wr : {0.5, 0.25, 0.1, 0.02}) {
    LoadgenResult r = run_loadgen(base_config(wr, true));
    sweep.add_row({format("%.2f", wr),
                   format("%.0f%%", 100.0 * r.lease_read_ratio),
                   format("%.2f", *r.reads.consensus_msgs_per_op),
                   format("%.2f", *r.consensus_msgs_per_cmd),
                   format("%.0f", r.throughput)});
  }
  sweep.print();

  // Regression guards.
  bool ok = true;
  if (*off.reads.consensus_msgs_per_op < 2.0) {
    std::fprintf(stderr,
                 "GUARD FAILED: ordered baseline reads look free "
                 "(%.2f cmsg/read) — comparison is vacuous\n",
                 *off.reads.consensus_msgs_per_op);
    ok = false;
  }
  if (on.lease_read_ratio < 0.9) {
    std::fprintf(stderr,
                 "GUARD FAILED: only %.0f%% of reads were served locally\n",
                 100.0 * on.lease_read_ratio);
    ok = false;
  }
  if (*on.reads.consensus_msgs_per_op > 0.5) {
    std::fprintf(stderr,
                 "GUARD FAILED: leased reads cost %.2f consensus msgs/read "
                 "(want ~0)\n",
                 *on.reads.consensus_msgs_per_op);
    ok = false;
  }
  if (on.writes.throughput < 0.75 * off.writes.throughput) {
    std::fprintf(stderr,
                 "GUARD FAILED: write throughput regressed with leases on "
                 "(%.0f -> %.0f acked writes/s)\n",
                 off.writes.throughput, on.writes.throughput);
    ok = false;
  }
  if (ok) {
    std::printf(
        "\nGUARD OK: baseline reads %.2f cmsg/read; leased reads %.0f%% "
        "local at %.2f cmsg/read; writes %.0f -> %.0f acked/s.\n",
        *off.reads.consensus_msgs_per_op, 100.0 * on.lease_read_ratio,
        *on.reads.consensus_msgs_per_op, off.writes.throughput,
        on.writes.throughput);
  }
  return ok ? 0 : 1;
}
