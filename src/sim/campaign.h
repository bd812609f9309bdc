// Randomized invariant campaigns: many seeds, full fault schedule, hard
// safety/efficiency checks, deterministic replay.
//
// A campaign run builds one of the repo's protocol stacks, unleashes
// Nemesis v2 on it (partitions, delay/duplication/reordering/corruption
// storms, stalls, and opt-in crashes), lets the network heal by the quiesce
// point and then checks the paper's claims at the horizon:
//
//   * unique leader  — every alive process trusts the same alive process
//     (killed processes are excluded from the quantifier via
//     Nemesis::killed(): they are not correct in that execution);
//   * efficiency     — in the trailing window only the leader sends, i.e.
//     at most n-1 links carry traffic (checked for the
//     communication-efficient variants only; the all-to-all baseline is
//     deliberately inefficient);
//   * agreement      — consensus logs are identical across alive nodes and
//     every value proposed by a never-killed process is decided everywhere;
//   * quiet cost     — in the same trailing window, consensus traffic stays
//     within one message per follower per retry period and group, however
//     many instances were decided (a crashed follower must not draw
//     per-instance retransmission forever);
//   * linearizability — client histories over the replicated KV store pass
//     the Wing & Gong checker.
//
// Every violation carries its seed and a CLI command that replays exactly
// that execution: runs are pure functions of (scenario, n, seed, config).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/topology_profile.h"
#include "obs/histogram.h"

namespace lls {

enum class Scenario {
  kCeOmega,         ///< paper's CE-Omega over system S
  kAll2AllOmega,    ///< all-to-all baseline over all-eventually-timely links
  kCrOmegaStable,   ///< crash-recovery Omega (stable storage), restarts on
  kConsensus,       ///< CE-Omega + log consensus, values proposed mid-chaos
  kKvLinearizable,  ///< full RSM stack, client history linearizability
  kClientSession,   ///< external ClusterClient sessions, exactly-once audit
};

/// All scenarios, in a stable order (useful for "run everything" sweeps).
inline constexpr Scenario kAllScenarios[] = {
    Scenario::kCeOmega,        Scenario::kAll2AllOmega,
    Scenario::kCrOmegaStable,  Scenario::kConsensus,
    Scenario::kKvLinearizable, Scenario::kClientSession};

[[nodiscard]] const char* scenario_name(Scenario scenario);
/// Parses a scenario_name() string; returns false on unknown names.
bool parse_scenario(const std::string& name, Scenario* out);

struct CampaignConfig {
  Scenario scenario = Scenario::kCeOmega;
  int n = 5;
  std::uint64_t first_seed = 1;
  int seeds = 50;
  /// Virtual end of each run; checks evaluate here.
  TimePoint horizon = 60 * kSecond;
  /// All disturbances heal by here (Nemesis quiesce).
  TimePoint quiesce = 15 * kSecond;
  /// Trailing window over which communication efficiency is measured.
  Duration check_window = 5 * kSecond;
  /// Crash-stop kills per run (0 disables; scenarios may cap further, and
  /// Nemesis always preserves a strict majority and protected processes).
  int crash_stop_budget = 1;
  /// Deliberately cripples the timeout machinery (timeout below the
  /// heartbeat period, adaptation off) so leadership flaps forever. A
  /// sabotaged campaign MUST report violations — this is how the harness
  /// itself is tested end to end.
  bool sabotage = false;
  bool verbose = false;
  /// When non-empty, each run dumps its control-plane event trace (JSONL,
  /// transport events excluded) to this path — last run wins, so pair with
  /// seeds=1 when replaying a specific execution.
  std::string trace_path;
  /// When non-empty, run_campaign deterministically re-runs every violating
  /// seed with tracing on and writes trace_<scenario>_<seed>.jsonl (and, for
  /// the kv scenario, hist_<scenario>_<seed>.hist) here.
  std::string trace_dir;
  /// kv scenario workload: randomized concurrent ops per run and distinct
  /// keys, all derived from the run seed (the default is sized for a 50-seed
  /// sweep; CI's timed check runs 5000 ops over 8 keys).
  int kv_ops = 400;
  int kv_keys = 8;
  /// kv scenario: consensus groups per replica (M >= 1). Each process hosts
  /// M key-partitioned groups behind one shared Omega
  /// (shard/BasicShardedReplica), with convergence checked per group and
  /// the same global history fed to the linearizability checker (its
  /// per-key partitioning aligns with the shard partition, so the check is
  /// unchanged).
  int shards = 1;
  /// kv scenario: leader leases. Replicas run the lease protocol and serve
  /// read-only Gets from local state while the lease holds; an assassin
  /// schedule spends crash_stop_budget killing whoever holds a *valid*
  /// lease at that instant (the adversarial moment for stale reads: the
  /// successor can only take over after the followers' fences expire). The
  /// run gets a second ♦-source so leadership re-stabilizes after the kill;
  /// the last source is spared. Safety is still judged by the
  /// linearizability checker — a correct fence yields zero rejections.
  bool lease_reads = false;
  /// Lease window for the kv lease modes.
  Duration lease_duration = 200 * kMillisecond;
  /// kv scenario: lease sabotage self-test. Disables the epoch fence
  /// (LeaseConfig::unsafe_skip_fence) and runs a scripted execution —
  /// elect, write, partition the leaseholder away, write through the new
  /// leader, then read at the deposed leader — whose stale local read the
  /// linearizability checker MUST flag (exactly one violation). This is
  /// how the lease safety argument itself is tested end to end.
  bool lease_sabotage = false;
  /// Per-partition search-node budget handed to the linearizability checker
  /// (kv scenario). Exceeding it is reported as budget exhaustion — its own
  /// verdict, not a violation — and still fails the campaign.
  std::size_t lin_max_nodes = 4'000'000;
  /// When non-empty, the kv scenario writes the recorded client history to
  /// this `.hist` path (last run wins; pair with seeds=1).
  std::string hist_path;
  /// Topology preset name (net/topology_profile.h). Empty = the legacy flat
  /// system-S cluster. Supported by the ce, consensus and kv scenarios:
  /// links, ♦-sources, crash protection and (for relay presets) routing all
  /// come from the profile. The zero-sources preset inverts the ce check —
  /// the control run MUST keep flapping. Other scenarios reject it.
  std::string topology;
  /// Adversarial link schedule applied on top of the preset (requires
  /// `topology` naming the schedule's preset). Shared: a sweep re-applies
  /// one decoded artifact to every seed.
  std::shared_ptr<const LinkSchedule> schedule;
  /// Where `schedule` was loaded from, for replay-command synthesis.
  std::string schedule_path;
};

struct Violation {
  std::uint64_t seed = 0;
  std::string what;
  std::string replay;  ///< CLI command reproducing this exact execution
};

struct CampaignResult {
  int runs = 0;
  std::vector<Violation> violations;
  /// Runs whose linearizability check ran out of search budget. Not a
  /// violation (nothing was proven wrong) but not a pass either — the
  /// campaign fails, with its own field so --json keeps the two apart.
  int budget_exceeded_runs = 0;
  /// Runs whose election never settled by the horizon (raw observation, not
  /// a verdict: on a passing zero-sources sweep this EQUALS `runs`, on a
  /// passing one-diamond-source sweep it is 0 — CI asserts both).
  int non_stabilized_runs = 0;
  /// Merged per-topology observables across the sweep (obs plane): election
  /// stabilization spans and consensus decide latencies.
  obs::Histogram stabilization_span_ms;
  obs::Histogram decide_latency_ms;
  [[nodiscard]] bool ok() const {
    return violations.empty() && budget_exceeded_runs == 0;
  }
};

/// Outcome of a single run. `violations` are proven safety/liveness
/// failures; `lin_budget_exceeded` means the checker gave up before a
/// verdict (raise CampaignConfig::lin_max_nodes or shrink the workload).
struct CaseResult {
  std::vector<std::string> violations;
  bool lin_budget_exceeded = false;
  /// Whether the election was settled at the horizon (see
  /// CampaignResult::non_stabilized_runs for the sweep-level roll-up).
  bool stabilized = true;
  obs::Histogram stabilization_span_ms;
  obs::Histogram decide_latency_ms;
  bool operator==(const CaseResult&) const = default;
};

/// Runs one scenario once; violations are human-readable (empty = pass).
/// Deterministic: same (config, seed) yields the same outcome.
CaseResult run_campaign_case(const CampaignConfig& config, std::uint64_t seed);

/// Sweeps seeds [first_seed, first_seed + seeds). When `log` is non-null,
/// prints progress and, for each violation, the offending seed plus the
/// deterministic replay command.
CampaignResult run_campaign(const CampaignConfig& config,
                            std::FILE* log = nullptr);

/// The lls_campaign invocation that replays one seed of this configuration.
[[nodiscard]] std::string replay_command(const CampaignConfig& config,
                                         std::uint64_t seed);

// ---------------------------------------------------------------------------
// Soak mode: hours of simulated time on one seed, with durable compaction,
// crash-recovery restarts and topology churn all running concurrently.
// ---------------------------------------------------------------------------

struct SoakConfig {
  int n = 5;
  std::uint64_t seed = 1;
  /// Total simulated time (hours-scale for the CLI; the bounded test
  /// variant runs a few virtual minutes).
  Duration duration = 600 * kSecond;
  /// Nemesis runs in back-to-back eras of this length; each era's faults
  /// (including crash-recovery restarts) heal by 60% of the era, leaving a
  /// stabilization stretch before the next one.
  Duration era = 30 * kSecond;
  /// The cluster's topology rotates through WAN/LAN profiles at this period
  /// (all-eventually-timely profiles only: the crash-recovery Omega may
  /// elect any process, so every process must eventually be a source).
  Duration churn_period = 75 * kSecond;
  /// Trickle workload rate; submissions stop `drain` before the horizon.
  int ops_per_sec = 4;
  int kv_keys = 8;
  Duration drain = 25 * kSecond;
  std::size_t lin_max_nodes = 4'000'000;
  bool verbose = false;
};

struct SoakResult {
  std::vector<std::string> violations;
  bool lin_budget_exceeded = false;
  int eras = 0;
  int churns = 0;
  /// Crash-recovery restarts that actually fired.
  int restarts = 0;
  std::uint64_t ops_submitted = 0;
  std::uint64_t ops_completed = 0;
  /// Compactions the replicas made by themselves below the leader's safe
  /// point, each replica counted each time (`consensus.compactions`).
  std::uint64_t compactions = 0;
  obs::Histogram stabilization_span_ms;
  obs::Histogram decide_latency_ms;
  [[nodiscard]] bool ok() const {
    return violations.empty() && !lin_budget_exceeded;
  }
};

/// Runs the soak on a durable CrKvReplica cluster. Deterministic in
/// (config, seed), like everything else here.
SoakResult run_soak(const SoakConfig& config, std::FILE* log = nullptr);

}  // namespace lls
