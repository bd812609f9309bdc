// lls_perfbench: runs one benchmark workload and prints its report.
//
//   lls_perfbench
//       --workload <sim-steady|sim-failover|udp-steady|udp-ladder|udp-closed>
//       --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Output: one "metric <name> <value> <unit>" line per figure, a
// "report {...}" line with the parameters and every figure, and as the last
// line the result object {correct, attempted, failed, metrics}, whose
// metrics are the end-to-end set untraced and the per-layer set traced.
// A run that fails a correctness check prints the failures and no result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload "
               "<sim-steady|sim-failover|udp-steady|udp-ladder|udp-closed> "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               argv0);
  return 2;
}

void print_metrics(const char* group,
                   const std::vector<perfbench::Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%s %-34s %14.6g %s\n", group, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || opt.seconds < 1 ||
      !have_trace) {
    return usage(argv[0]);
  }

  perfbench::Report report;
  try {
    if (opt.workload == "sim-steady" || opt.workload == "sim-failover") {
      report = perfbench::run_sim_workload(opt);
    } else if (opt.workload.rfind("udp-", 0) == 0) {
      report = perfbench::run_udp_workload(opt);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  print_metrics("metric", report.end_to_end);
  print_metrics("layer ", report.per_layer);
  print_metrics("note  ", report.extra);
  std::printf("report %s\n", report.full_json(opt).c_str());
  if (!report.correct) {
    for (const auto& e : report.errors) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    }
    std::fflush(stdout);
    return 1;
  }
  std::printf("%s\n", report.result_json(opt.trace).c_str());
  return 0;
}
