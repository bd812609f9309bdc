// lls_campaign — randomized invariant campaign driver.
//
// Sweeps hundreds of seeds through the full fault-injection engine
// (Nemesis v2) against each protocol stack and checks the paper's safety
// and efficiency claims after the network heals. On any violation it
// prints the offending seed and the exact command that replays that
// execution deterministically.
//
//   lls_campaign --scenario=all --seeds=50            # 50 seeds x 5 stacks
//   lls_campaign --scenario=ce --seeds=200
//   lls_campaign --scenario=kv --seeds=25 --kills=0
//   lls_campaign --scenario=ce --seeds=20 --sabotage  # MUST report failures
//   lls_campaign --topology=one-diamond-source --seeds=100
//   lls_campaign --topology=zero-sources --scenario=ce   # must NOT stabilize
//   lls_campaign --soak-ms=600000                     # 10 virtual minutes
//
// Exit status: 0 when every run passed, 1 on violations — so CI can gate
// on it directly.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "flags.h"
#include "net/topology_profile.h"
#include "sim/campaign.h"

using namespace lls;

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fputs(
      "usage: lls_campaign [options]\n"
      "\n"
      "  --scenario=<ce|all2all|cr|consensus|kv|client|all>  stack to "
      "torture (default all)\n"
      "  --seeds=<int>         seeds per scenario (default 50)\n"
      "  --first-seed=<u64>    first seed (default 1)\n"
      "  --n=<int>             processes (default 5)\n"
      "  --horizon-ms=<int>    virtual run length (default 60000)\n"
      "  --quiesce-ms=<int>    all faults healed by here (default 15000)\n"
      "  --kills=<int>         crash-stop kills per run (default 1)\n"
      "  --sabotage            cripple timeouts; campaign must then FAIL\n"
      "  --verbose             print per-seed progress\n"
      "  --kv-ops=<int>        kv scenario: randomized ops per run (default "
      "400)\n"
      "  --kv-keys=<int>       kv scenario: distinct keys (default 8)\n"
      "  --shards=<int>        kv scenario: consensus groups per replica\n"
      "                        (default 1; must be >= 1)\n"
      "  --lease-reads         kv scenario: leader leases + local reads,\n"
      "                        crash budget spent on the leaseholder at\n"
      "                        lease-valid instants\n"
      "  --lease-sabotage      kv scenario: fence disabled, scripted stale\n"
      "                        read; campaign must then FAIL (exactly one\n"
      "                        linearizability violation)\n"
      "  --lease-duration-ms=D lease window (default 200)\n"
      "  --lin-max-nodes=<u64> linearizability search budget per partition\n"
      "  --hist=<path>         kv scenario: record the client history (.hist)\n"
      "  --trace=<path>        dump each run's control-plane trace (JSONL)\n"
      "  --trace-dir=<dir>     re-run violating seeds with tracing on and\n"
      "                        write trace_<scenario>_<seed>.jsonl (+ the kv\n"
      "                        scenario's hist_<scenario>_<seed>.hist) there\n"
      "  --out=<path>          write a machine-readable summary\n"
      "                        (--json=<path> is an alias)\n"
      "  --topology=<preset>   run on a named topology profile; with\n"
      "                        --scenario=all only the topology-aware\n"
      "                        scenarios (ce, consensus, kv) are swept, and\n"
      "                        the zero-sources necessity control runs ce\n"
      "                        only (it must NOT stabilize)\n"
      "  --schedule=<path>     apply a saved adversarial link schedule on\n"
      "                        top of its topology (see lls_adversary)\n"
      "  --soak-ms=<int>       soak mode: one long durable crash-recovery\n"
      "                        run with restarts + topology churn, the\n"
      "                        replicas compacting by themselves\n"
      "                        (ignores --scenario)\n"
      "  --soak-era-ms=<int>   nemesis era length (default 30000)\n"
      "  --soak-churn-ms=<int> topology churn period (default 75000)\n"
      "  --soak-ops-per-sec=<int> workload rate (default 4)\n",
      stderr);
  std::exit(2);
}

void hist_json(bench::Json& json, const char* name,
               const obs::Histogram& hist) {
  json.key(name).begin_object();
  json.key("count").value(hist.count());
  json.key("mean_ms").value(hist.mean());
  json.key("p50_ms").value(hist.percentile(50));
  json.key("p99_ms").value(hist.percentile(99));
  json.key("max_ms").value(hist.max());
  json.end_object();
}

int run_soak_mode(const SoakConfig& sc, const std::string& json_path) {
  SoakResult result = run_soak(sc, stderr);
  for (const std::string& what : result.violations) {
    std::fprintf(stderr, "[soak] VIOLATION: %s\n", what.c_str());
  }
  if (!json_path.empty()) {
    bench::Json json;
    json.begin_object();
    json.key("tool").value("lls_campaign");
    json.key("mode").value("soak");
    json.key("config").begin_object();
    json.key("n").value(sc.n);
    json.key("seed").value(sc.seed);
    json.key("duration_ms").value(sc.duration / kMillisecond);
    json.key("era_ms").value(sc.era / kMillisecond);
    json.key("churn_ms").value(sc.churn_period / kMillisecond);
    json.key("ops_per_sec").value(sc.ops_per_sec);
    json.end_object();
    json.key("eras").value(result.eras);
    json.key("churns").value(result.churns);
    json.key("restarts").value(result.restarts);
    json.key("ops_submitted").value(result.ops_submitted);
    json.key("ops_completed").value(result.ops_completed);
    json.key("compactions").value(result.compactions);
    hist_json(json, "stabilization_span", result.stabilization_span_ms);
    hist_json(json, "decide_latency", result.decide_latency_ms);
    json.key("violations").begin_array();
    for (const std::string& what : result.violations) json.value(what);
    json.end_array();
    json.key("lin_budget_exceeded").value(result.lin_budget_exceeded);
    json.key("exit_code").value(result.ok() ? 0 : 1);
    json.end_object();
    if (!bench::write_json_file(json_path, json)) return 1;
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignConfig config;
  bench::Flags flags(argc, argv);
  if (flags.help()) usage();

  bool all_scenarios = true;
  std::string scenario = flags.str("scenario", "all");
  if (scenario != "all") {
    if (!parse_scenario(scenario, &config.scenario)) {
      usage(("unknown scenario: " + scenario).c_str());
    }
    all_scenarios = false;
  }
  config.seeds = static_cast<int>(
      flags.u64("seeds", static_cast<std::uint64_t>(config.seeds)));
  config.first_seed = flags.u64("first-seed", config.first_seed);
  config.n = static_cast<int>(
      flags.u64("n", static_cast<std::uint64_t>(config.n)));
  config.horizon = static_cast<Duration>(flags.u64(
                       "horizon-ms",
                       static_cast<std::uint64_t>(config.horizon /
                                                  kMillisecond))) *
                   kMillisecond;
  config.quiesce = static_cast<Duration>(flags.u64(
                       "quiesce-ms",
                       static_cast<std::uint64_t>(config.quiesce /
                                                  kMillisecond))) *
                   kMillisecond;
  config.crash_stop_budget = static_cast<int>(flags.u64(
      "kills", static_cast<std::uint64_t>(config.crash_stop_budget)));
  config.sabotage = flags.flag("sabotage");
  config.verbose = flags.flag("verbose");
  config.kv_ops = static_cast<int>(
      flags.u64("kv-ops", static_cast<std::uint64_t>(config.kv_ops)));
  config.kv_keys = static_cast<int>(
      flags.u64("kv-keys", static_cast<std::uint64_t>(config.kv_keys)));
  config.shards = static_cast<int>(
      flags.i64("shards", static_cast<std::int64_t>(config.shards)));
  config.lease_reads = flags.flag("lease-reads");
  config.lease_sabotage = flags.flag("lease-sabotage");
  config.lease_duration =
      static_cast<Duration>(flags.u64(
          "lease-duration-ms",
          static_cast<std::uint64_t>(config.lease_duration / kMillisecond))) *
      kMillisecond;
  config.lin_max_nodes = flags.u64("lin-max-nodes", config.lin_max_nodes);
  config.hist_path = flags.str("hist");
  config.trace_path = flags.str("trace");
  config.trace_dir = flags.str("trace-dir");
  config.topology = flags.str("topology");
  std::string schedule_path = flags.str("schedule");
  const Duration soak_ms = static_cast<Duration>(flags.u64("soak-ms", 0));
  SoakConfig soak;
  soak.n = config.n;
  soak.seed = config.first_seed;
  soak.duration = soak_ms * kMillisecond;
  soak.era = static_cast<Duration>(flags.u64("soak-era-ms", 30000)) *
             kMillisecond;
  soak.churn_period =
      static_cast<Duration>(flags.u64("soak-churn-ms", 75000)) * kMillisecond;
  soak.ops_per_sec = static_cast<int>(flags.u64("soak-ops-per-sec", 4));
  soak.kv_keys = config.kv_keys;
  soak.lin_max_nodes = config.lin_max_nodes;
  soak.verbose = config.verbose;
  std::string json_path = flags.out();
  if (!flags.ok()) {
    flags.report(stderr);
    usage();
  }
  if (config.n < 3) usage("--n must be >= 3");
  if (config.shards < 1) usage("--shards must be >= 1");
  if (config.quiesce >= config.horizon) usage("--quiesce-ms must precede --horizon-ms");

  if (soak_ms > 0) return run_soak_mode(soak, json_path);

  bool expect_stabilize = true;
  if (!config.topology.empty()) {
    auto profile = topology_preset(config.topology, config.n);
    if (!profile) {
      std::string known;
      for (const std::string& name : topology_preset_names()) {
        known += " " + name;
      }
      usage(("unknown topology preset: " + config.topology + " (known:" +
             known + ")")
                .c_str());
    }
    expect_stabilize = profile->expect_stabilize;
  }
  if (!schedule_path.empty()) {
    if (config.topology.empty()) usage("--schedule requires --topology");
    auto schedule = LinkSchedule::load(schedule_path);
    if (!schedule) {
      usage(("cannot load link schedule: " + schedule_path).c_str());
    }
    config.schedule = std::make_shared<const LinkSchedule>(*schedule);
    config.schedule_path = schedule_path;
  }

  std::vector<Scenario> scenarios;
  if (all_scenarios && !config.topology.empty()) {
    // Only the topology-aware scenarios; the zero-sources necessity control
    // runs no replicated stack (nothing is owed liveness without a source).
    scenarios.push_back(Scenario::kCeOmega);
    if (expect_stabilize) {
      scenarios.push_back(Scenario::kConsensus);
      scenarios.push_back(Scenario::kKvLinearizable);
    }
  } else if (all_scenarios) {
    scenarios.assign(std::begin(kAllScenarios), std::end(kAllScenarios));
  } else {
    scenarios.push_back(config.scenario);
  }

  int runs = 0;
  std::size_t violations = 0;
  int budget_exceeded = 0;
  std::vector<std::pair<Scenario, CampaignResult>> results;
  for (Scenario scenario : scenarios) {
    CampaignConfig one = config;
    one.scenario = scenario;
    CampaignResult result = run_campaign(one, stderr);
    runs += result.runs;
    violations += result.violations.size();
    budget_exceeded += result.budget_exceeded_runs;
    results.emplace_back(scenario, std::move(result));
  }
  std::fprintf(stderr,
               "campaign total: %d runs, %zu violations, %d budget-exceeded\n",
               runs, violations, budget_exceeded);
  const bool passed = violations == 0 && budget_exceeded == 0;

  if (!json_path.empty()) {
    bench::Json json;
    json.begin_object();
    json.key("tool").value("lls_campaign");
    json.key("config").begin_object();
    json.key("n").value(config.n);
    json.key("seeds_per_scenario").value(config.seeds);
    json.key("first_seed").value(config.first_seed);
    json.key("horizon_ms").value(config.horizon / kMillisecond);
    json.key("quiesce_ms").value(config.quiesce / kMillisecond);
    json.key("kills").value(config.crash_stop_budget);
    json.key("sabotage").value(config.sabotage);
    json.key("lease_reads").value(config.lease_reads);
    json.key("lease_sabotage").value(config.lease_sabotage);
    json.key("topology").value(config.topology);
    json.key("schedule").value(config.schedule_path);
    json.end_object();
    json.key("scenarios").begin_array();
    for (const auto& [scenario, result] : results) {
      json.begin_object();
      json.key("scenario").value(scenario_name(scenario));
      json.key("runs").value(result.runs);
      json.key("violations").value(result.violations.size());
      json.key("budget_exceeded").value(result.budget_exceeded_runs);
      json.key("non_stabilized_runs").value(result.non_stabilized_runs);
      hist_json(json, "stabilization_span", result.stabilization_span_ms);
      hist_json(json, "decide_latency", result.decide_latency_ms);
      json.key("details").begin_array();
      for (const Violation& v : result.violations) {
        json.begin_object();
        json.key("seed").value(v.seed);
        json.key("what").value(v.what);
        json.key("replay").value(v.replay);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.key("total_runs").value(runs);
    json.key("total_violations").value(violations);
    json.key("total_budget_exceeded").value(budget_exceeded);
    json.key("exit_code").value(passed ? 0 : 1);
    json.key("exit_rationale")
        .value(passed
                   ? "all runs passed every invariant"
                   : violations > 0
                         ? "at least one invariant violation; see details "
                           "for seeds and replay commands"
                         : "linearizability search budget exceeded; nothing "
                           "proven wrong, raise --lin-max-nodes or shrink "
                           "--kv-ops");
    json.end_object();
    if (!bench::write_json_file(json_path, json)) return 1;
  }
  return passed ? 0 : 1;
}
