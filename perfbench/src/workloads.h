// The benchmark's workloads. Each runs for about Options::seconds, checks
// its own outputs and fills a Report with the end-to-end metrics (untraced)
// or the per-layer metrics (traced).
#pragma once

#include "report.h"

namespace perfbench {

/// "sim-steady" or "sim-failover" (deterministic simulator).
Report run_sim_workload(const Options& opt);

/// "udp-ladder", "udp-steady" or "udp-closed" (four UdpNode loops in this
/// process, loopback sockets).
Report run_udp_workload(const Options& opt);

}  // namespace perfbench
