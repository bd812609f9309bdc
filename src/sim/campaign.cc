#include "sim/campaign.h"

#include <algorithm>
#include <limits>
#include <cinttypes>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "client/cluster_client.h"
#include "common/rng.h"
#include "consensus/experiment.h"
#include "consensus/node.h"
#include "net/relay.h"
#include "net/topology.h"
#include "omega/all2all_omega.h"
#include "omega/ce_omega.h"
#include "omega/cr_omega.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "rsm/history.h"
#include "rsm/linearizability.h"
#include "shard/sharded_replica.h"
#include "sim/nemesis.h"
#include "sim/simulator.h"

namespace lls {

const char* scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::kCeOmega: return "ce";
    case Scenario::kAll2AllOmega: return "all2all";
    case Scenario::kCrOmegaStable: return "cr";
    case Scenario::kConsensus: return "consensus";
    case Scenario::kKvLinearizable: return "kv";
    case Scenario::kClientSession: return "client";
  }
  return "?";
}

bool parse_scenario(const std::string& name, Scenario* out) {
  for (Scenario s : kAllScenarios) {
    if (name == scenario_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

namespace {

/// One shared fault-schedule template per run. The nemesis seed is derived
/// from the run seed (not equal to it) so link randomness and schedule
/// randomness are decorrelated, yet both replay from the single CLI seed.
NemesisConfig nemesis_for(const CampaignConfig& config, std::uint64_t seed) {
  NemesisConfig nc;
  nc.seed = seed * 0x9e3779b97f4a7c15ULL + static_cast<int>(config.scenario);
  nc.start = 1 * kSecond;
  nc.quiesce = config.quiesce;
  return nc;
}

/// The ♦-source for the system-S scenarios. Protected from crash-stop: the
/// liveness premises require at least one correct ♦-source.
ProcessId source_of(const CampaignConfig& config) {
  return static_cast<ProcessId>(config.n - 1);
}

LinkFactory system_s_links(const CampaignConfig& config) {
  SystemSParams params;
  params.sources = {source_of(config)};
  params.gst = 500 * kMillisecond;
  return make_system_s(params);
}

CeOmegaConfig ce_config(const CampaignConfig& config) {
  CeOmegaConfig oc;
  if (config.sabotage) {
    // Timeout below the heartbeat period and no adaptation: every leader is
    // perpetually accused and elections flap forever. NOT zero — a zero
    // timeout with no adaptation would re-arm at the same virtual instant
    // and the event loop would never advance time.
    oc.initial_timeout = oc.eta / 2;
    oc.timeout_policy = CeOmegaConfig::TimeoutPolicy::kNone;
  }
  return oc;
}

/// Control-plane tracer, attached when the config asks for a trace dump.
/// Transport events are excluded so the leadership/decide/nemesis story is
/// not evicted from the ring by per-message traffic.
std::unique_ptr<obs::RingTracer> maybe_trace(Simulator& sim,
                                             const CampaignConfig& config) {
  if (config.trace_path.empty()) return nullptr;
  return std::make_unique<obs::RingTracer>(sim.plane().bus(), 65536,
                                           obs::kControlEvents);
}

void dump_trace(const std::unique_ptr<obs::RingTracer>& tracer,
                const CampaignConfig& config) {
  if (tracer != nullptr) tracer->dump_jsonl_file(config.trace_path);
}

/// Checks that every alive process trusts the same alive process. `leader_of`
/// is called per process so callers can re-fetch actors (recovery replaces
/// the actor instance). Returns the agreed leader when unique.
template <typename LeaderOf>
std::optional<ProcessId> check_unique_leader(
    const Simulator& sim, LeaderOf&& leader_of,
    std::vector<std::string>& violations) {
  std::optional<ProcessId> agreed;
  bool disagreement = false;
  for (ProcessId p = 0; p < static_cast<ProcessId>(sim.n()); ++p) {
    if (!sim.alive(p)) continue;
    ProcessId l = leader_of(p);
    if (!agreed) {
      agreed = l;
    } else if (*agreed != l) {
      disagreement = true;
    }
  }
  if (disagreement) {
    std::ostringstream what;
    what << "leader disagreement after quiesce:";
    for (ProcessId p = 0; p < static_cast<ProcessId>(sim.n()); ++p) {
      if (sim.alive(p)) what << " p" << p << "->" << int(leader_of(p));
    }
    violations.push_back(what.str());
    return std::nullopt;
  }
  if (!agreed) {
    violations.emplace_back("no process alive at horizon");
    return std::nullopt;
  }
  if (*agreed == kNoProcess || !sim.alive(*agreed)) {
    std::ostringstream what;
    what << "agreed leader p" << int(*agreed) << " is not an alive process";
    violations.push_back(what.str());
    return std::nullopt;
  }
  return agreed;
}

/// Communication efficiency: in the trailing window only the leader sends
/// (n-1 links). Quantified over actual senders, so crashed processes are
/// excluded by construction.
void check_efficiency(const Simulator& sim, const CampaignConfig& config,
                      ProcessId leader, std::vector<std::string>& violations) {
  // Read the net stats back through the unified observability registry.
  auto senders = NetStats::from(sim.plane().registry())
                     ->senders_between(config.horizon - config.check_window,
                                       config.horizon);
  if (senders.size() == 1 && *senders.begin() == leader) return;
  std::ostringstream what;
  what << "efficiency violated: senders in trailing window {";
  for (ProcessId p : senders) what << " p" << p;
  what << " }, expected only leader p" << leader;
  violations.push_back(what.str());
}

/// Quiescent consensus cost (R3 after a failure): in the trailing window,
/// consensus traffic stays within one message per follower per retry period
/// for each consensus group — a bound that does not depend on how many
/// instances were decided. Per-instance DECIDE retransmission to a crashed
/// replica grows with the log and breaks it. Checked only when the window
/// opens at least kQuietSettle after `quiet_from` (faults healed, workload
/// stopped); shorter runs have no quiet window. Relay presets wrap
/// consensus messages in relay envelopes, which this per-class count does
/// not see.
void check_quiet_consensus(const Simulator& sim, const CampaignConfig& config,
                           TimePoint quiet_from, int groups,
                           std::vector<std::string>& violations) {
  constexpr Duration kQuietSettle = 5 * kSecond;
  const TimePoint from = config.horizon - config.check_window;
  if (from < quiet_from + kQuietSettle) return;
  const Duration period = LogConsensusConfig{}.retry_period;
  const std::uint64_t msgs =
      NetStats::from(sim.plane().registry())
          ->class_msgs_between(from, config.horizon,
                               NetStats::type_class(msg_type::kAccept));
  const double per_period = static_cast<double>(msgs) *
                            static_cast<double>(period) /
                            static_cast<double>(config.check_window);
  const int bound = groups * (config.n - 1);
  if (per_period <= bound) return;
  std::ostringstream what;
  what << "quiescent consensus traffic unbounded: " << per_period
       << " msgs per retry period in the trailing window, bound " << bound;
  violations.push_back(what.str());
}

/// Crash accounting cross-check: every kill Nemesis reports must be dead in
/// the simulator, and kills never exceed a strict minority.
void check_kill_accounting(const Simulator& sim, const Nemesis& nemesis,
                           std::vector<std::string>& violations) {
  for (ProcessId p : nemesis.killed()) {
    if (sim.alive(p)) {
      std::ostringstream what;
      what << "correct-set accounting broken: p" << p
           << " is in killed() but alive at horizon";
      violations.push_back(what.str());
    }
  }
  if (static_cast<int>(nemesis.killed().size()) * 2 >= sim.n()) {
    violations.emplace_back("nemesis killed a majority of processes");
  }
}

/// Wraps a violations-only outcome (scenarios that predate CaseResult's
/// observability fields).
CaseResult only_violations(std::vector<std::string> violations) {
  CaseResult result;
  result.violations = std::move(violations);
  return result;
}

/// Everything a topology-preset run derives from CampaignConfig::topology:
/// the profile (schedule already applied), its LinkFactory, the processes to
/// protect from kills, and the expected stabilization verdict.
struct TopologySetup {
  TopologyProfile profile;
  LinkFactory base;
  std::vector<ProcessId> protect;
  bool expect_stabilize = true;
  bool use_relay = false;
};

/// Resolves config.topology (+ optional adversarial schedule). Returns
/// nullopt both when no topology was requested (no violation added) and when
/// the request is invalid (violation added) — callers distinguish via
/// config.topology.empty().
std::optional<TopologySetup> topology_setup(
    const CampaignConfig& config, std::vector<std::string>& violations) {
  if (config.topology.empty()) return std::nullopt;
  auto profile = topology_preset(config.topology, config.n);
  if (!profile) {
    violations.push_back("unknown topology preset: " + config.topology +
                         " (n=" + std::to_string(config.n) + ")");
    return std::nullopt;
  }
  if (config.schedule != nullptr) {
    if (config.schedule->topology != config.topology ||
        config.schedule->n != config.n) {
      violations.emplace_back(
          "link schedule does not match the run: schedule is for " +
          config.schedule->topology + "/n=" +
          std::to_string(config.schedule->n));
      return std::nullopt;
    }
    try {
      *profile = apply_schedule(std::move(*profile), *config.schedule);
    } catch (const std::exception& e) {
      violations.emplace_back(std::string("invalid link schedule: ") +
                              e.what());
      return std::nullopt;
    }
  }
  TopologySetup setup;
  setup.expect_stabilize = profile->expect_stabilize;
  setup.use_relay = profile->use_relay;
  if (!profile->sources.empty()) setup.protect = {profile->sources.back()};
  setup.base = profile->factory();
  setup.profile = std::move(*profile);
  return setup;
}

/// Fetches p's protocol actor, unwrapping the relay envelope when the
/// topology routes over the flood path.
template <typename T>
T& proto_actor(Simulator& sim, ProcessId p, bool relayed) {
  if (relayed) return dynamic_cast<T&>(sim.actor_as<RelayActor>(p).inner());
  return sim.actor_as<T>(p);
}

/// Pulls the run's obs-plane histograms into the case result: election
/// stabilization spans plus consensus decide latencies (including the
/// per-shard "_shard<g>" series, merged into one population).
void collect_histograms(const Simulator& sim, CaseResult& result) {
  for (const auto& [name, hist] : sim.plane().registry().histograms()) {
    if (name == "election_stabilization_ms") {
      result.stabilization_span_ms.merge(hist);
    } else if (name.rfind("consensus_decide_latency_ms", 0) == 0) {
      result.decide_latency_ms.merge(hist);
    }
  }
}

/// The zero-sources verdict. GrowingSilenceLink delivers timely *between*
/// silence windows, so the election may transiently look settled at the
/// horizon; "never stabilizes" operationally means the cluster was still
/// being disrupted by the last silence window that opened before the
/// horizon: either a span is open, or stability was lost and re-gained at
/// least twice with the latest flip inside that last window.
bool still_flapping(const obs::ElectionSpanTracker& tracker,
                    TimePoint horizon) {
  if (tracker.span_open()) return true;
  const TimePoint last = GrowingSilenceLink::last_silence_start(horizon);
  return tracker.spans_closed() >= 2 && last != kTimeNever &&
         tracker.last_transition() >= last;
}

CaseResult run_ce_omega(const CampaignConfig& config, std::uint64_t seed) {
  CaseResult result;
  std::vector<std::string>& violations = result.violations;
  auto topo = topology_setup(config, violations);
  if (!config.topology.empty() && !topo) return result;
  SimConfig sc;
  sc.n = config.n;
  sc.seed = seed;
  LinkFactory base = topo ? topo->base : system_s_links(config);
  Simulator sim(sc, base);
  auto tracer = maybe_trace(sim, config);
  obs::ElectionSpanTracker tracker(sim.plane(), config.n);
  const bool relayed = topo && topo->use_relay;
  for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
    if (relayed) {
      sim.emplace_actor<RelayActor>(
          p, std::make_unique<CeOmega>(ce_config(config)));
    } else {
      sim.emplace_actor<CeOmega>(p, ce_config(config));
    }
  }
  NemesisConfig nc = nemesis_for(config, seed);
  nc.crash_stop_budget = config.crash_stop_budget;
  nc.protected_processes =
      topo ? topo->protect : std::vector<ProcessId>{source_of(config)};
  Nemesis nemesis(sim, base, nc);
  sim.start();
  sim.run_until(config.horizon);
  dump_trace(tracer, config);

  check_kill_accounting(sim, nemesis, violations);
  if (!topo || topo->expect_stabilize) {
    result.stabilized = !tracker.span_open();
    auto leader = check_unique_leader(
        sim,
        [&](ProcessId p) {
          return proto_actor<const CeOmega>(sim, p, relayed).leader();
        },
        violations);
    // Raw-message efficiency does not apply over the relay flood path (the
    // relaxation trades it for eventually timely *paths*).
    if (leader && !relayed) {
      check_efficiency(sim, config, *leader, violations);
    }
  } else {
    // The paper's necessity direction: with zero ♦-sources the election
    // MUST keep flapping. A settled election here is the violation.
    result.stabilized = !still_flapping(tracker, config.horizon);
    if (result.stabilized) {
      violations.emplace_back(
          "zero-sources control stabilized: election settled although no "
          "process has eventually timely outgoing links");
    }
  }
  collect_histograms(sim, result);
  return result;
}

std::vector<std::string> run_all2all(const CampaignConfig& config,
                                     std::uint64_t seed) {
  if (!config.topology.empty()) {
    return {"topology presets are not supported by the all2all scenario"};
  }
  SimConfig sc;
  sc.n = config.n;
  sc.seed = seed;
  // The baseline needs every link eventually timely (its premise).
  LinkFactory base = make_all_eventually_timely(
      500 * kMillisecond, {500 * kMicrosecond, 2 * kMillisecond},
      {0.5, {500 * kMicrosecond, 20 * kMillisecond}});
  Simulator sim(sc, base);
  auto tracer = maybe_trace(sim, config);
  All2AllOmegaConfig oc;
  if (config.sabotage) {
    oc.initial_timeout = oc.eta / 2;
    oc.additive_step = 0;
  }
  for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
    sim.emplace_actor<All2AllOmega>(p, oc);
  }
  NemesisConfig nc = nemesis_for(config, seed);
  nc.crash_stop_budget = config.crash_stop_budget;
  Nemesis nemesis(sim, base, nc);
  sim.start();
  sim.run_until(config.horizon);
  dump_trace(tracer, config);

  std::vector<std::string> violations;
  check_kill_accounting(sim, nemesis, violations);
  // No efficiency check: all-to-all heartbeats forever by design.
  check_unique_leader(
      sim,
      [&](ProcessId p) {
        return sim.actor_as<const All2AllOmega>(p).leader();
      },
      violations);
  return violations;
}

std::vector<std::string> run_cr_omega(const CampaignConfig& config,
                                      std::uint64_t seed) {
  if (!config.topology.empty()) {
    return {"topology presets are not supported by the cr scenario"};
  }
  SimConfig sc;
  sc.n = config.n;
  sc.seed = seed;
  CrOmegaConfig oc;
  DelayRange delay{500 * kMicrosecond, 2 * kMillisecond};
  if (config.sabotage) {
    // Links slower than the (non-adaptive) timeout: perpetual premature
    // suspicion. Timeouts stay eta-scale, so virtual time still advances.
    delay = {15 * kMillisecond, 25 * kMillisecond};
    oc.timeout_step = 0;
  }
  LinkFactory base = make_all_timely(delay);
  Simulator sim(sc, base);
  auto tracer = maybe_trace(sim, config);
  for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
    sim.set_actor_factory(
        p, [oc]() { return std::make_unique<CrOmegaStable>(oc); });
  }
  NemesisConfig nc = nemesis_for(config, seed);
  nc.crash_restart = true;  // the crash-recovery model's signature fault
  nc.crash_stop_budget = config.crash_stop_budget;
  Nemesis nemesis(sim, base, nc);
  sim.start();
  sim.run_until(config.horizon);
  dump_trace(tracer, config);

  std::vector<std::string> violations;
  check_kill_accounting(sim, nemesis, violations);
  // Recovery replaces actor instances — fetch through the simulator, never
  // through pointers captured before the run.
  auto leader = check_unique_leader(
      sim,
      [&](ProcessId p) {
        return sim.actor_as<const CrOmegaStable>(p).leader();
      },
      violations);
  if (leader) check_efficiency(sim, config, *leader, violations);
  return violations;
}

CaseResult run_consensus(const CampaignConfig& config, std::uint64_t seed) {
  CaseResult result;
  std::vector<std::string>& violations = result.violations;
  auto topo = topology_setup(config, violations);
  if (!config.topology.empty() && !topo) return result;
  if (topo && !topo->expect_stabilize) {
    violations.emplace_back(
        "the zero-sources control needs no consensus stack; use the ce "
        "scenario");
    return result;
  }
  SimConfig sc;
  sc.n = config.n;
  sc.seed = seed;
  LinkFactory base = topo ? topo->base : system_s_links(config);
  Simulator sim(sc, base);
  auto tracer = maybe_trace(sim, config);
  obs::ElectionSpanTracker tracker(sim.plane(), config.n);
  const bool relayed = topo && topo->use_relay;
  for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
    if (relayed) {
      sim.emplace_actor<RelayActor>(
          p, std::make_unique<CeNode>(ce_config(config), LogConsensusConfig{}));
    } else {
      sim.emplace_actor<CeNode>(p, ce_config(config), LogConsensusConfig{});
    }
  }
  NemesisConfig nc = nemesis_for(config, seed);
  nc.crash_stop_budget = config.crash_stop_budget;
  nc.protected_processes =
      topo ? topo->protect : std::vector<ProcessId>{source_of(config)};
  Nemesis nemesis(sim, base, nc);

  // Values proposed mid-chaos, round-robin across processes. A proposal is
  // only *owed* a decision if its submitter was alive at submission and was
  // never crash-stopped (a killed submitter's value may be lost with it).
  constexpr std::uint64_t kValues = 15;
  constexpr TimePoint first_propose = 1 * kSecond;
  constexpr Duration propose_every = 500 * kMillisecond;
  std::vector<ProcessId> submitter(kValues);
  std::vector<bool> submitted_alive(kValues, false);
  for (std::uint64_t k = 0; k < kValues; ++k) {
    submitter[k] = static_cast<ProcessId>(k % config.n);
    sim.schedule(first_propose + k * propose_every, [&sim, &submitted_alive,
                                                     relayed, k]() {
      ProcessId p = static_cast<ProcessId>(
          k % static_cast<std::uint64_t>(sim.n()));
      if (!sim.alive(p)) return;
      submitted_alive[k] = true;
      proto_actor<CeNode>(sim, p, relayed).consensus().propose(
          make_value(k + 1));
    });
  }
  sim.start();
  sim.run_until(config.horizon);
  dump_trace(tracer, config);

  check_kill_accounting(sim, nemesis, violations);

  const auto& killed = nemesis.killed();
  auto was_killed = [&](ProcessId p) {
    return std::find(killed.begin(), killed.end(), p) != killed.end();
  };

  // Agreement: across alive nodes, any two decisions for the same instance
  // are identical (checked pairwise against the first decided value).
  Instance max_len = 0;
  for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
    if (!sim.alive(p)) continue;
    max_len = std::max(
        max_len,
        proto_actor<CeNode>(sim, p, relayed).consensus().first_unknown());
  }
  std::set<std::uint64_t> decided_ids;
  for (Instance i = 0; i < max_len; ++i) {
    std::optional<Bytes> expected;
    for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
      if (!sim.alive(p)) continue;
      auto v = proto_actor<CeNode>(sim, p, relayed).consensus().decision(i);
      if (!v) continue;
      if (!expected) {
        expected = v;
        if (!v->empty()) decided_ids.insert(value_id(*v));
      } else if (*v != *expected) {
        std::ostringstream what;
        what << "decision disagreement at instance " << i;
        violations.push_back(what.str());
      }
    }
  }

  // Liveness + completeness: every owed value decided, on every alive node.
  Instance min_len = max_len;
  for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
    if (!sim.alive(p)) continue;
    min_len = std::min(
        min_len,
        proto_actor<CeNode>(sim, p, relayed).consensus().first_unknown());
  }
  for (std::uint64_t k = 0; k < kValues; ++k) {
    if (!submitted_alive[k] || was_killed(submitter[k])) continue;
    if (!decided_ids.count(k + 1)) {
      std::ostringstream what;
      what << "value " << (k + 1) << " (submitted by alive p"
           << int(submitter[k]) << ") never decided";
      violations.push_back(what.str());
    }
  }
  if (min_len < max_len) {
    std::ostringstream what;
    what << "alive nodes have not converged: log lengths " << min_len
         << " vs " << max_len << " at horizon";
    violations.push_back(what.str());
  }
  const TimePoint last_propose =
      first_propose + static_cast<Duration>(kValues - 1) * propose_every;
  check_quiet_consensus(sim, config, std::max(config.quiesce, last_propose),
                        1, violations);
  result.stabilized = !tracker.span_open();
  collect_histograms(sim, result);
  return result;
}

/// One pre-planned client operation of the randomized kv workload.
struct PlannedKvOp {
  TimePoint at = 0;
  ProcessId submitter = kNoProcess;
  KvOp op = KvOp::kGet;
  std::string key;
  std::string value;
  std::string expected;
};

/// Generates the kv workload for one run: `kv_ops` operations over `kv_keys`
/// keys at uniform times in [1s, submit_end], submitters uniform over the
/// cluster. Purely a function of (config, seed) — the schedule is fixed
/// before the simulation starts, so replays regenerate it bit-for-bit.
std::vector<PlannedKvOp> plan_kv_workload(const CampaignConfig& config,
                                          std::uint64_t seed,
                                          TimePoint submit_end) {
  // Decorrelated from both the link randomness (raw seed) and the nemesis
  // schedule (different salt).
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ 0x6b766f7073ULL);
  const int n_ops = std::max(config.kv_ops, 1);
  const int n_keys = std::max(config.kv_keys, 1);
  const TimePoint submit_begin = 1 * kSecond;
  std::vector<PlannedKvOp> plan(static_cast<std::size_t>(n_ops));
  for (int k = 0; k < n_ops; ++k) {
    PlannedKvOp& p = plan[static_cast<std::size_t>(k)];
    p.at = submit_begin +
           static_cast<TimePoint>(rng.next_below(
               static_cast<std::uint64_t>(submit_end - submit_begin)));
    p.submitter = static_cast<ProcessId>(
        rng.next_below(static_cast<std::uint64_t>(config.n)));
    p.key = "k" + std::to_string(rng.next_below(
                      static_cast<std::uint64_t>(n_keys)));
    // Unique-per-op values make lost updates and double applies visible to
    // the checker (two ops never legitimately produce the same value).
    p.value = "v" + std::to_string(k);
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 35) {
      p.op = KvOp::kGet;
    } else if (roll < 55) {
      p.op = KvOp::kPut;
    } else if (roll < 75) {
      p.op = KvOp::kAppend;
    } else if (roll < 90) {
      p.op = KvOp::kCas;
      // Half expect "absent/empty", half a plausible earlier value: some
      // CAS succeed, some fail, both outcomes exercised.
      p.expected = rng.chance(0.5)
                       ? std::string()
                       : "v" + std::to_string(rng.next_below(
                                   static_cast<std::uint64_t>(n_ops)));
    } else {
      p.op = KvOp::kDel;
    }
  }
  return plan;
}

CaseResult run_kv(const CampaignConfig& config, std::uint64_t seed) {
  CaseResult early;
  auto topo = topology_setup(config, early.violations);
  if (!config.topology.empty() && !topo) return early;
  if (topo && !topo->expect_stabilize) {
    early.violations.emplace_back(
        "the zero-sources control needs no kv stack; use the ce scenario");
    return early;
  }
  SimConfig sc;
  sc.n = config.n;
  sc.seed = seed;
  const bool lease_mode = config.lease_reads || config.lease_sabotage;
  const bool relayed = topo && topo->use_relay;
  LinkFactory base;
  if (topo) {
    // The profile is authoritative: a lease+assassin run on a preset relies
    // on the spared ♦-source being the preset's protected source instead of
    // the legacy second-source grafting below.
    base = topo->base;
  } else if (config.lease_reads && !config.lease_sabotage) {
    // The assassin below kills the leaseholder, which under system S is
    // (eventually) the ♦-source itself. A second source keeps the liveness
    // premise alive after the kill: leadership re-stabilizes on the spared
    // one and pending ops still drain.
    SystemSParams params;
    params.sources = {static_cast<ProcessId>(config.n - 2),
                      source_of(config)};
    params.gst = 500 * kMillisecond;
    base = make_system_s(params);
  } else {
    base = system_s_links(config);
  }
  Simulator sim(sc, base);
  auto tracer = maybe_trace(sim, config);
  obs::ElectionSpanTracker tracker(sim.plane(), config.n);
  // Batching keeps thousands of ops per run affordable: the Θ(n) consensus
  // cost is amortized over each batch.
  KvReplicaConfig rc;
  rc.max_batch = 8;
  rc.batch_flush_delay = 2 * kMillisecond;
  rc.lease_reads = lease_mode;
  LogConsensusConfig lc;
  lc.lease.enabled = lease_mode;
  lc.lease.duration = config.lease_duration;
  lc.lease.unsafe_skip_fence = config.lease_sabotage;
  CeOmegaConfig oc = ce_config(config);
  if (lease_mode) oc.lease_duration = config.lease_duration;
  ShardedReplicaConfig src;
  src.shards = config.shards;
  src.replica = rc;
  const ShardedKvReplica::Options opts{
      .omega = oc, .consensus = lc, .sharded = src};
  for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
    if (relayed) {
      sim.emplace_actor<RelayActor>(p,
                                    std::make_unique<ShardedKvReplica>(opts));
    } else {
      sim.emplace_actor<ShardedKvReplica>(p, opts);
    }
  }
  auto replica = [&sim, relayed](ProcessId p) -> ShardedKvReplica& {
    return proto_actor<ShardedKvReplica>(sim, p, relayed);
  };
  // The sabotage script needs a controlled execution: no nemesis chaos, the
  // scripted partition is the only fault. Lease-assassin runs hand the
  // whole crash budget to the assassin (killing at a *meaningful* moment
  // instead of a random one).
  std::optional<Nemesis> nemesis;
  if (!config.lease_sabotage) {
    NemesisConfig nc = nemesis_for(config, seed);
    nc.crash_stop_budget =
        config.lease_reads ? 0 : config.crash_stop_budget;
    nc.protected_processes =
        topo ? topo->protect : std::vector<ProcessId>{source_of(config)};
    nemesis.emplace(sim, base, nc);
  }

  auto holder_of = [&sim, &config, replica]() {
    for (ProcessId p = 0; p < static_cast<ProcessId>(config.n); ++p) {
      if (sim.alive(p) && replica(p).lease_valid_groups() > 0) return p;
    }
    return kNoProcess;
  };

  // Lease-boundary assassin: poll at a quarter of the lease window; once
  // armed, the first poll that observes a process holding a valid lease
  // kills it on the spot. Arm times derive from the seed, so the whole
  // schedule replays from the CLI.
  auto lease_killed = std::make_shared<std::vector<ProcessId>>();
  if (config.lease_reads && !config.lease_sabotage &&
      config.crash_stop_budget > 0) {
    auto kill_rng = std::make_shared<Rng>(seed * 0x9e3779b97f4a7c15ULL ^
                                          0x6c65617365ULL);
    auto arm_at = std::make_shared<TimePoint>(
        2 * kSecond +
        static_cast<TimePoint>(kill_rng->next_below(
            static_cast<std::uint64_t>(config.quiesce))));
    auto budget = std::make_shared<int>(config.crash_stop_budget);
    const ProcessId spared =
        topo && !topo->protect.empty() ? topo->protect.back()
                                       : source_of(config);
    sim.schedule_every(
        2 * kSecond, std::max<Duration>(config.lease_duration / 4, 1),
        [&sim, &config, holder_of, lease_killed, kill_rng, arm_at, budget,
         spared]() {
          if (*budget <= 0) return false;
          if (sim.now() < *arm_at) return true;
          const ProcessId holder = holder_of();
          if (holder == kNoProcess || holder == spared) return true;
          // Strict majority must survive every kill.
          if (static_cast<int>(lease_killed->size() + 1) * 2 >= config.n) {
            return false;
          }
          lease_killed->push_back(holder);
          sim.crash_now(holder);
          --*budget;
          *arm_at = sim.now() + 1 * kSecond +
                    static_cast<Duration>(kill_rng->next_below(
                        static_cast<std::uint64_t>(config.quiesce / 2)));
          return true;
        });
  }

  // Randomized concurrent workload, checked with checker v2 (per-key
  // partitioning makes thousands of ops tractable). Submissions stop
  // midway through the post-quiesce period so the tail of the run drains
  // in-flight ops; ops from killed submitters stay pending
  // (responded == kTimeNever), which the checker treats as "may take
  // effect at any later point or never" — exactly crash semantics.
  const TimePoint submit_end =
      std::max(2 * kSecond,
               config.quiesce + (config.horizon - config.quiesce) / 2);
  auto plan = std::make_shared<std::vector<PlannedKvOp>>(
      config.lease_sabotage ? std::vector<PlannedKvOp>{}
                            : plan_kv_workload(config, seed, submit_end));
  auto history = std::make_shared<std::vector<HistoryOp>>();
  history->reserve(plan->size());
  for (std::size_t k = 0; k < plan->size(); ++k) {
    sim.schedule((*plan)[k].at, [&sim, plan, history, k, replica]() {
      const PlannedKvOp& spec = (*plan)[k];
      if (!sim.alive(spec.submitter)) return;  // op never issued
      HistoryOp op;
      op.cmd.origin = spec.submitter;
      op.cmd.seq = static_cast<std::uint64_t>(k) + 1;  // workload index
      op.cmd.op = spec.op;
      op.cmd.key = spec.key;
      op.cmd.value = spec.value;
      op.cmd.expected = spec.expected;
      op.invoked = sim.now();
      std::size_t slot = history->size();
      history->push_back(op);
      auto done = [history, slot, &sim](const KvResult& result) {
        (*history)[slot].responded = sim.now();
        (*history)[slot].result = result;
      };
      replica(spec.submitter)
          .submit(spec.op, spec.key, spec.value, spec.expected,
                  std::move(done));
    });
  }
  // Lease sabotage script: elect and write, partition the leaseholder away
  // from every replica (its self-belief — and thus its fenceless "lease" —
  // survives, because accusations travel TO the accused and are now
  // dropped), write through the successor, then read at the deposed leader.
  // With the fence disabled the deposed leader answers locally from stale
  // state; the linearizability checker must catch exactly that.
  auto sab_leader = std::make_shared<ProcessId>(kNoProcess);
  if (config.lease_sabotage) {
    auto submit_at = [&sim, history, replica](ProcessId p, KvOp op,
                                              std::string key,
                                              std::string value) {
      HistoryOp rec;
      rec.cmd.origin = p;
      rec.cmd.seq = static_cast<std::uint64_t>(history->size()) + 1;
      rec.cmd.op = op;
      rec.cmd.key = key;
      rec.cmd.value = value;
      rec.invoked = sim.now();
      const std::size_t slot = history->size();
      history->push_back(rec);
      auto done = [history, slot, &sim](const KvResult& result) {
        (*history)[slot].responded = sim.now();
        (*history)[slot].result = result;
      };
      replica(p).submit(op, std::move(key), std::move(value), "",
                        std::move(done));
    };
    sim.schedule(3 * kSecond, [sab_leader, holder_of, submit_at]() {
      *sab_leader = holder_of();
      if (*sab_leader == kNoProcess) return;  // reported as a setup failure
      submit_at(*sab_leader, KvOp::kPut, "k0", "old");
    });
    sim.schedule(5 * kSecond, [&sim, &config, sab_leader]() {
      const ProcessId l = *sab_leader;
      if (l == kNoProcess) return;
      for (ProcessId q = 0; q < static_cast<ProcessId>(config.n); ++q) {
        if (q == l) continue;
        sim.network().set_link(l, q, std::make_unique<DeadLink>());
        sim.network().set_link(q, l, std::make_unique<DeadLink>());
      }
    });
    sim.schedule(11 * kSecond, [&config, sab_leader, submit_at]() {
      if (*sab_leader == kNoProcess) return;
      submit_at(static_cast<ProcessId>((*sab_leader + 1) % config.n),
                KvOp::kPut, "k0", "new");
    });
    sim.schedule(17 * kSecond, [sab_leader, submit_at]() {
      if (*sab_leader == kNoProcess) return;
      submit_at(*sab_leader, KvOp::kGet, "k0", "");
    });
  }

  sim.start();
  sim.run_until(config.horizon);
  dump_trace(tracer, config);
  if (!config.hist_path.empty()) {
    HistoryMeta meta;
    meta.source = "lls_campaign/kv";
    meta.seed = seed;
    write_history_file(config.hist_path, *history, meta);
  }

  CaseResult result;
  std::vector<std::string>& violations = result.violations;
  if (nemesis) check_kill_accounting(sim, *nemesis, violations);
  if (config.lease_sabotage && *sab_leader == kNoProcess) {
    violations.emplace_back(
        "lease sabotage script never found a leaseholder to depose");
  }

  // Liveness: an op submitted at a never-killed replica must complete once
  // the network heals (same owed-a-decision rule as the consensus
  // scenario). Assassin victims count as killed; the sabotage script's
  // permanent partition intentionally violates the healing premise, so the
  // obligation is waived there.
  std::vector<ProcessId> killed =
      nemesis ? nemesis->killed() : std::vector<ProcessId>{};
  killed.insert(killed.end(), lease_killed->begin(), lease_killed->end());
  std::size_t owed_pending = 0;
  for (const HistoryOp& op : *history) {
    if (op.responded != kTimeNever) continue;
    if (std::find(killed.begin(), killed.end(), op.cmd.origin) ==
        killed.end()) {
      ++owed_pending;
    }
  }
  if (owed_pending > 0 && !config.lease_sabotage) {
    std::ostringstream what;
    what << owed_pending << " ops from never-killed submitters never "
         << "completed by the horizon";
    violations.push_back(what.str());
  }

  // Convergence: alive replicas hold byte-identical stores at the horizon —
  // per group (the groups' stores are disjoint key partitions that must
  // each converge independently).
  const int groups = config.shards;
  std::vector<std::optional<std::uint64_t>> digests(
      static_cast<std::size_t>(groups));
  std::vector<bool> diverged(static_cast<std::size_t>(groups), false);
  for (ProcessId p = 0;
       !config.lease_sabotage && p < static_cast<ProcessId>(config.n); ++p) {
    if (!sim.alive(p)) continue;
    for (int g = 0; g < groups; ++g) {
      const std::uint64_t d = replica(p).group(g).store().digest();
      auto& ref = digests[static_cast<std::size_t>(g)];
      if (!ref) {
        ref = d;
      } else if (*ref != d && !diverged[static_cast<std::size_t>(g)]) {
        diverged[static_cast<std::size_t>(g)] = true;
        violations.emplace_back(
            "alive replicas diverged: store digests differ" +
            (groups > 1 ? " (shard " + std::to_string(g) + ")"
                        : std::string()));
      }
    }
  }

  LinOptions lo;
  lo.max_nodes = config.lin_max_nodes;
  LinReport report = LinearizabilityChecker::check_report(*history, lo);
  switch (report.verdict) {
    case LinVerdict::kLinearizable:
      break;
    case LinVerdict::kNotLinearizable: {
      std::ostringstream what;
      what << "client history is not linearizable: partition \""
           << report.failed_partition << "\", minimal core of "
           << report.core.size() << " ops (of " << history->size() << ")";
      violations.push_back(what.str());
      break;
    }
    case LinVerdict::kBudgetExceeded:
      result.lin_budget_exceeded = true;
      break;
  }
  // The sabotage script's permanent partition never lets the deposed
  // leader go quiet; its verdict is the linearizability one alone.
  if (!config.lease_sabotage) {
    check_quiet_consensus(sim, config, std::max(config.quiesce, submit_end),
                          groups, violations);
  }
  result.stabilized = !tracker.span_open();
  collect_histograms(sim, result);
  return result;
}

/// External client sessions under chaos: replicas at [0, n), ClusterClient
/// processes above them on the same fabric. Clients run a closed loop of
/// uniquely-tokened appends through the redirect/retry protocol while
/// Nemesis disrupts the cluster (clients themselves are protected — the
/// audited contract is the cluster's, not survival of the client process).
/// At the horizon: alive stores identical, no token applied twice, every
/// acked token present everywhere, and every client drained (liveness).
CaseResult run_client_session(const CampaignConfig& config,
                              std::uint64_t seed) {
  if (!config.topology.empty()) {
    return only_violations(
        {"topology presets are not supported by the client scenario"});
  }
  constexpr int kClients = 3;
  const int cluster_n = config.n;
  SimConfig sc;
  sc.n = cluster_n + kClients;
  sc.seed = seed;
  LinkFactory base = system_s_links(config);
  Simulator sim(sc, base);
  auto tracer = maybe_trace(sim, config);
  // Server-side history, assembled from the obs client-request/reply
  // events: a second, independently recorded view of the same execution.
  BusHistoryRecorder recorder(sim.plane().bus());

  KvReplicaConfig rc;
  rc.cluster_n = cluster_n;
  rc.max_batch = 4;
  rc.batch_flush_delay = 2 * kMillisecond;
  for (ProcessId p = 0; p < static_cast<ProcessId>(cluster_n); ++p) {
    sim.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = ce_config(config),
                                     .consensus = LogConsensusConfig{},
                                     .sharded = {.shards = 1, .replica = rc}});
  }
  ClusterClientConfig cc;
  cc.cluster_n = cluster_n;
  cc.window = 2;
  // Client links are fair-lossy *forever* in system S (only the ♦-source's
  // outgoing links turn timely), so draining is probabilistic in the number
  // of retries. Keep the retry cadence tight so the drain window holds
  // dozens of attempts per request and the residual miss probability is
  // negligible.
  cc.attempt_timeout = 100 * kMillisecond;
  cc.backoff_max = 240 * kMillisecond;
  std::vector<ClusterClient*> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(&sim.emplace_actor<ClusterClient>(
        static_cast<ProcessId>(cluster_n + c), cc));
  }

  NemesisConfig nc = nemesis_for(config, seed);
  nc.crash_stop_budget = config.crash_stop_budget;
  nc.protected_processes.push_back(source_of(config));
  for (int c = 0; c < kClients; ++c) {
    nc.protected_processes.push_back(static_cast<ProcessId>(cluster_n + c));
  }
  Nemesis nemesis(sim, base, nc);

  // Closed loop: each client keeps its window full of uniquely-tokened
  // appends until submit_end, leaving the rest of the run to drain.
  const TimePoint submit_end = config.quiesce + 2 * kSecond;
  auto acked_tokens = std::make_shared<std::vector<std::string>>();
  auto counter = std::make_shared<std::uint64_t>(0);
  auto submit_one = std::make_shared<std::function<void(int)>>();
  *submit_one = [&sim, clients, acked_tokens, counter, submit_end, cluster_n,
                 submit_one](int ci) {
    std::string token = std::to_string(cluster_n + ci) + "." +
                        std::to_string(++*counter) + ";";
    std::string key = "audit" + std::to_string(ci % 2);
    clients[static_cast<std::size_t>(ci)]->submit(
        KvOp::kAppend, std::move(key), token, "",
        [&sim, acked_tokens, token, submit_end, submit_one,
         ci](const ClientCompletion& done) {
          if (!done.timed_out) acked_tokens->push_back(token);
          if (sim.now() < submit_end) (*submit_one)(ci);
        });
  };
  sim.schedule(1 * kSecond, [submit_one]() {
    for (int c = 0; c < kClients; ++c) {
      for (int k = 0; k < 2; ++k) (*submit_one)(c);
    }
  });

  sim.start();
  sim.run_until(config.horizon);
  dump_trace(tracer, config);
  // The closed-loop closure captures its own shared_ptr; break the cycle so
  // repeated campaign cases in one process do not accumulate.
  *submit_one = nullptr;

  CaseResult result;
  std::vector<std::string>& violations = result.violations;
  check_kill_accounting(sim, nemesis, violations);

  // Liveness: with no request deadline, every submission must be acked once
  // the cluster stabilizes; an undrained client means a lost session.
  for (int c = 0; c < kClients; ++c) {
    const ClusterClient& client = *clients[static_cast<std::size_t>(c)];
    if (client.inflight() + client.queued() > 0) {
      std::ostringstream what;
      what << "client p" << (cluster_n + c) << " still has "
           << (client.inflight() + client.queued())
           << " requests outstanding at horizon";
      violations.push_back(what.str());
    }
  }

  // Exactly-once audit over every alive replica.
  std::optional<std::uint64_t> digest;
  for (ProcessId p = 0; p < static_cast<ProcessId>(cluster_n); ++p) {
    if (!sim.alive(p)) continue;
    const KvStore& store = sim.actor_as<ShardedKvReplica>(p).group(0).store();
    std::uint64_t d = store.digest();
    if (!digest) {
      digest = d;
    } else if (*digest != d) {
      std::ostringstream what;
      what << "replica p" << p << " store digest diverges";
      violations.push_back(what.str());
    }
    std::map<std::string, int> census;
    for (const auto& [key, value] : store.data()) {
      std::size_t begin = 0;
      while (begin < value.size()) {
        std::size_t end = value.find(';', begin);
        if (end == std::string::npos) break;
        ++census[value.substr(begin, end - begin + 1)];
        begin = end + 1;
      }
    }
    for (const auto& [token, count] : census) {
      if (count > 1) {
        std::ostringstream what;
        what << "replica p" << p << ": token " << token << " applied "
             << count << " times (duplicate)";
        violations.push_back(what.str());
      }
    }
    for (const std::string& token : *acked_tokens) {
      if (census.find(token) == census.end()) {
        std::ostringstream what;
        what << "replica p" << p << ": acked token " << token
             << " missing (lost write)";
        violations.push_back(what.str());
        break;  // one lost token per replica is signal enough
      }
    }
  }
  if (!digest) violations.emplace_back("no alive replica to audit");

  // The server-side recorded history must itself be linearizable: the obs
  // events bracket each op's log-order effect point, so this checks the
  // same contract from the replicas' vantage instead of the clients'.
  LinReport report = LinearizabilityChecker::check_report(recorder.history());
  switch (report.verdict) {
    case LinVerdict::kLinearizable:
      break;
    case LinVerdict::kNotLinearizable: {
      std::ostringstream what;
      what << "recorded server-side history is not linearizable: partition \""
           << report.failed_partition << "\", core of " << report.core.size()
           << " ops";
      violations.push_back(what.str());
      break;
    }
    case LinVerdict::kBudgetExceeded:
      result.lin_budget_exceeded = true;
      break;
  }
  return result;
}

}  // namespace

CaseResult run_campaign_case(const CampaignConfig& config,
                             std::uint64_t seed) {
  switch (config.scenario) {
    case Scenario::kCeOmega:
      return run_ce_omega(config, seed);
    case Scenario::kAll2AllOmega:
      return only_violations(run_all2all(config, seed));
    case Scenario::kCrOmegaStable:
      return only_violations(run_cr_omega(config, seed));
    case Scenario::kConsensus:
      return run_consensus(config, seed);
    case Scenario::kKvLinearizable:
      return run_kv(config, seed);
    case Scenario::kClientSession:
      return run_client_session(config, seed);
  }
  return only_violations({"unknown scenario"});
}

std::string replay_command(const CampaignConfig& config, std::uint64_t seed) {
  std::ostringstream out;
  out << "lls_campaign --scenario=" << scenario_name(config.scenario)
      << " --n=" << config.n << " --seeds=1 --first-seed=" << seed
      << " --horizon-ms=" << config.horizon / kMillisecond
      << " --quiesce-ms=" << config.quiesce / kMillisecond
      << " --kills=" << config.crash_stop_budget;
  if (config.scenario == Scenario::kKvLinearizable) {
    out << " --kv-ops=" << config.kv_ops << " --kv-keys=" << config.kv_keys;
    if (config.shards != 1) out << " --shards=" << config.shards;
    if (config.lease_reads) out << " --lease-reads";
    if (config.lease_sabotage) out << " --lease-sabotage";
  }
  if (!config.topology.empty()) out << " --topology=" << config.topology;
  if (!config.schedule_path.empty()) {
    out << " --schedule=" << config.schedule_path;
  }
  if (config.sabotage) out << " --sabotage";
  out << " --verbose";
  return out.str();
}

CampaignResult run_campaign(const CampaignConfig& config, std::FILE* log) {
  CampaignResult result;
  for (int i = 0; i < config.seeds; ++i) {
    std::uint64_t seed = config.first_seed + static_cast<std::uint64_t>(i);
    CaseResult case_result = run_campaign_case(config, seed);
    const std::vector<std::string>& violations = case_result.violations;
    ++result.runs;
    if (!case_result.stabilized) ++result.non_stabilized_runs;
    result.stabilization_span_ms.merge(case_result.stabilization_span_ms);
    result.decide_latency_ms.merge(case_result.decide_latency_ms);
    if (case_result.lin_budget_exceeded) {
      ++result.budget_exceeded_runs;
      if (log != nullptr) {
        std::fprintf(log,
                     "[%s] seed=%" PRIu64
                     " BUDGET EXCEEDED: linearizability check gave up "
                     "(raise --lin-max-nodes)\n  replay: %s\n",
                     scenario_name(config.scenario), seed,
                     replay_command(config, seed).c_str());
      }
    }
    const bool failed = !violations.empty() || case_result.lin_budget_exceeded;
    if (failed && !config.trace_dir.empty()) {
      // Runs are pure functions of (config, seed): re-run the offender with
      // tracing on and commit the control-plane trace — and, for the kv
      // scenario, the recorded `.hist` — as artifacts.
      CampaignConfig traced = config;
      traced.trace_path = config.trace_dir + "/trace_" +
                          scenario_name(config.scenario) + "_" +
                          std::to_string(seed) + ".jsonl";
      if (config.scenario == Scenario::kKvLinearizable) {
        traced.hist_path = config.trace_dir + "/hist_" +
                           scenario_name(config.scenario) + "_" +
                           std::to_string(seed) + ".hist";
      }
      run_campaign_case(traced, seed);
      if (log != nullptr) {
        std::fprintf(log, "[%s] seed=%" PRIu64 " trace: %s\n",
                     scenario_name(config.scenario), seed,
                     traced.trace_path.c_str());
        if (!traced.hist_path.empty()) {
          std::fprintf(log, "[%s] seed=%" PRIu64 " history: %s\n",
                       scenario_name(config.scenario), seed,
                       traced.hist_path.c_str());
        }
      }
    }
    for (const std::string& what : violations) {
      Violation v;
      v.seed = seed;
      v.what = what;
      v.replay = replay_command(config, seed);
      if (log != nullptr) {
        std::fprintf(log,
                     "[%s] VIOLATION seed=%" PRIu64 ": %s\n  replay: %s\n",
                     scenario_name(config.scenario), seed, what.c_str(),
                     v.replay.c_str());
      }
      result.violations.push_back(std::move(v));
    }
    if (log != nullptr && config.verbose && !failed) {
      std::fprintf(log, "[%s] seed=%" PRIu64 " ok\n",
                   scenario_name(config.scenario), seed);
    }
  }
  if (log != nullptr) {
    std::fprintf(log, "[%s] %d runs, %zu violations, %d budget-exceeded\n",
                 scenario_name(config.scenario), result.runs,
                 result.violations.size(), result.budget_exceeded_runs);
  }
  return result;
}

namespace {

/// The soak's churn rotation. Every profile is all-(eventually-)timely: the
/// crash-recovery Omega elects the process with the fewest recoveries —
/// which under restarts can be ANY process — so every process must
/// eventually be able to lead.
std::vector<TopologyProfile> soak_profiles(int n) {
  std::vector<TopologyProfile> out;
  TopologyProfile lan = TopologyProfile::make("lan-flat", n);
  for (ProcessId s = 0; s < static_cast<ProcessId>(n); ++s) {
    for (ProcessId d = 0; d < static_cast<ProcessId>(n); ++d) {
      if (s == d) continue;
      LinkSpec& spec = lan.link(s, d);
      spec.cls = LinkClass::kTimely;
      spec.delay = {200 * kMicrosecond, 1 * kMillisecond};
    }
  }
  out.push_back(std::move(lan));
  out.push_back(make_wan_3region_profile(n));
  WanTiers slow;
  slow.intra_dc = {400 * kMicrosecond, 2 * kMillisecond};
  slow.cross_region = {20 * kMillisecond, 60 * kMillisecond};
  slow.transcontinental = {120 * kMillisecond, 240 * kMillisecond};
  TopologyProfile wan_slow = make_wan_3region_profile(n, slow);
  wan_slow.name = "wan-3region-slow";
  out.push_back(std::move(wan_slow));
  return out;
}

}  // namespace

SoakResult run_soak(const SoakConfig& config, std::FILE* log) {
  SoakResult result;
  std::vector<std::string>& violations = result.violations;
  const int n = config.n;

  SimConfig sc;
  sc.n = n;
  sc.seed = config.seed;
  // Topology churn through a live factory: heals and recoveries always
  // re-instantiate from the *current* profile, and a churn swap rebuilds
  // every directed link in place.
  auto profiles =
      std::make_shared<std::vector<TopologyProfile>>(soak_profiles(n));
  auto current = std::make_shared<std::size_t>(0);
  LinkFactory base = [profiles, current](ProcessId src, ProcessId dst) {
    return (*profiles)[*current].link(src, dst).instantiate();
  };
  Simulator sim(sc, base);
  obs::ElectionSpanTracker tracker(sim.plane(), n);

  // Crash/recover telemetry off the bus: recoveries are counted, and crash
  // times waive the completion obligation of ops whose callback died with
  // the submitter's volatile state.
  struct Telemetry {
    std::vector<std::vector<TimePoint>> crashes;
    int restarts = 0;
  };
  auto telem = std::make_shared<Telemetry>();
  telem->crashes.resize(static_cast<std::size_t>(n));
  obs::Subscription sub = sim.plane().bus().subscribe(
      obs::mask_of(obs::EventType::kCrash) |
          obs::mask_of(obs::EventType::kRecover),
      [telem, n](const obs::Event& e) {
        if (e.process == kNoProcess ||
            e.process >= static_cast<ProcessId>(n)) {
          return;
        }
        if (e.type == obs::EventType::kCrash) {
          telem->crashes[static_cast<std::size_t>(e.process)].push_back(e.t);
        } else {
          ++telem->restarts;
        }
      });

  // Durable crash-recovery replicas: every restart replays the stable log
  // and the compaction snapshot — the recovery path the soak hammers.
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    sim.set_actor_factory(p, []() {
      LogConsensusConfig lc;
      lc.durable = true;
      KvReplicaConfig rc;
      rc.max_batch = 8;
      rc.batch_flush_delay = 2 * kMillisecond;
      return std::make_unique<CrKvReplica>(
          CrKvReplica::Options{.omega = CrOmegaConfig{},
                               .consensus = lc,
                               .sharded = {.shards = 1, .replica = rc}});
    });
  }

  // Back-to-back nemesis eras, each with crash-recovery restarts, healing
  // by 60% of the era so the cluster re-stabilizes before the next one.
  std::vector<std::unique_ptr<Nemesis>> eras;
  for (TimePoint t0 = 0; t0 + config.era <= config.duration;
       t0 += config.era) {
    NemesisConfig nc;
    nc.seed = config.seed * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(result.eras);
    nc.start = t0 + 1 * kSecond;
    nc.quiesce = t0 + config.era * 3 / 5;
    nc.crash_restart = true;
    nc.crash_stop_budget = 0;
    eras.push_back(std::make_unique<Nemesis>(sim, base, nc));
    ++result.eras;
  }

  // Topology churn: swap the live profile and rebuild every directed link.
  sim.schedule_every(
      config.churn_period, config.churn_period,
      [&sim, profiles, current, &result, log, &config]() {
        *current = (*current + 1) % profiles->size();
        ++result.churns;
        for (ProcessId s = 0; s < static_cast<ProcessId>(sim.n()); ++s) {
          for (ProcessId d = 0; d < static_cast<ProcessId>(sim.n()); ++d) {
            if (s == d) continue;
            sim.network().set_link(
                s, d, (*profiles)[*current].link(s, d).instantiate());
          }
        }
        if (log != nullptr && config.verbose) {
          std::fprintf(log, "[soak] t=%.0fs churn -> %s\n",
                       static_cast<double>(sim.now()) /
                           static_cast<double>(kSecond),
                       (*profiles)[*current].name.c_str());
        }
        return true;
      });

  // Periodic snapshot + log compaction, only while the whole cluster is up
  // (compaction discards history a down laggard would still need).
  // Coordinated watermark: compact every replica to the MINIMUM applied
  // prefix across the cluster, never each replica's own. Churn drops DECIDE
  // retransmissions, so replicas drift apart; per-replica compaction would
  // destroy the only copies of decisions a laggard still needs, and the
  // prepare-side compaction guard would then (rightly) refuse it leadership
  // until a catch-up that can no longer happen.
  sim.schedule_every(config.compact_period, config.compact_period,
                     [&sim, &result]() {
                       Instance floor =
                           std::numeric_limits<Instance>::max();
                       for (ProcessId p = 0;
                            p < static_cast<ProcessId>(sim.n()); ++p) {
                         if (!sim.alive(p)) return true;
                         floor = std::min(floor, sim.actor_as<CrKvReplica>(p)
                                                     .group(0)
                                                     .applied_upto());
                       }
                       if (floor == 0) return true;
                       for (ProcessId p = 0;
                            p < static_cast<ProcessId>(sim.n()); ++p) {
                         sim.actor_as<CrKvReplica>(p).group(0).compact_to(
                             floor);
                       }
                       ++result.compactions;
                       return true;
                     });

  // Trickle workload: one op per period at a random replica, recorded for
  // the final linearizability check. Values are unique per op.
  const TimePoint submit_end = config.duration > config.drain
                                   ? config.duration - config.drain
                                   : config.duration / 2;
  auto wl_rng = std::make_shared<Rng>(config.seed * 0x9e3779b97f4a7c15ULL ^
                                      0x736f616bULL);
  auto history = std::make_shared<std::vector<HistoryOp>>();
  auto op_counter = std::make_shared<std::uint64_t>(0);
  const Duration period = std::max<Duration>(
      kSecond / static_cast<Duration>(std::max(config.ops_per_sec, 1)), 1);
  sim.schedule_every(
      1 * kSecond, period,
      [&sim, wl_rng, history, op_counter, &result, &config, submit_end]() {
        if (sim.now() >= submit_end) return false;
        const auto p = static_cast<ProcessId>(
            wl_rng->next_below(static_cast<std::uint64_t>(sim.n())));
        const std::string key =
            "k" + std::to_string(wl_rng->next_below(
                      static_cast<std::uint64_t>(std::max(config.kv_keys, 1))));
        const std::uint64_t id = ++*op_counter;
        const std::string value = "s" + std::to_string(id);
        KvOp op = KvOp::kGet;
        std::string expected;
        const std::uint64_t roll = wl_rng->next_below(100);
        if (roll < 35) {
          op = KvOp::kGet;
        } else if (roll < 55) {
          op = KvOp::kPut;
        } else if (roll < 75) {
          op = KvOp::kAppend;
        } else if (roll < 90) {
          op = KvOp::kCas;
          expected = wl_rng->chance(0.5)
                         ? std::string()
                         : "s" + std::to_string(wl_rng->next_below(id) + 1);
        } else {
          op = KvOp::kDel;
        }
        if (!sim.alive(p)) return true;  // op never issued
        ++result.ops_submitted;
        HistoryOp rec;
        rec.cmd.origin = p;
        rec.cmd.seq = id;
        rec.cmd.op = op;
        rec.cmd.key = key;
        rec.cmd.value = value;
        rec.cmd.expected = expected;
        rec.invoked = sim.now();
        const std::size_t slot = history->size();
        history->push_back(rec);
        auto done = [history, slot, &sim, &result](const KvResult& r) {
          (*history)[slot].responded = sim.now();
          (*history)[slot].result = r;
          ++result.ops_completed;
        };
        sim.actor_as<CrKvReplica>(p).submit(op, key, value, expected,
                                            std::move(done));
        return true;
      });

  sim.start();
  sim.run_until(config.duration);

  // Every era healed its own faults; nobody may still be down.
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    if (!sim.alive(p)) {
      violations.push_back("process p" + std::to_string(p) +
                           " still down at the end of the soak");
    }
  }

  // Liveness: an op whose submitter never crashed after invocation must
  // have completed (a crash loses the volatile callback, so those are
  // waived — the op itself may or may not have been applied, which is
  // exactly the pending semantics the checker assumes).
  std::size_t owed_pending = 0;
  for (const HistoryOp& op : *history) {
    if (op.responded != kTimeNever) continue;
    const auto& crashes = telem->crashes[static_cast<std::size_t>(
        op.cmd.origin)];
    const bool waived = std::any_of(
        crashes.begin(), crashes.end(),
        [&op](TimePoint t) { return t >= op.invoked; });
    if (!waived) ++owed_pending;
  }
  if (owed_pending > 0) {
    violations.push_back(std::to_string(owed_pending) +
                         " ops from never-crashed submitters never "
                         "completed by the end of the soak");
  }

  // Convergence: all replicas hold byte-identical stores.
  std::optional<std::uint64_t> digest;
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    if (!sim.alive(p)) continue;
    const std::uint64_t d =
        sim.actor_as<CrKvReplica>(p).group(0).store().digest();
    if (!digest) {
      digest = d;
    } else if (*digest != d) {
      violations.emplace_back(
          "replicas diverged: store digests differ at the end of the soak");
      break;
    }
  }

  LinOptions lo;
  lo.max_nodes = config.lin_max_nodes;
  LinReport report = LinearizabilityChecker::check_report(*history, lo);
  switch (report.verdict) {
    case LinVerdict::kLinearizable:
      break;
    case LinVerdict::kNotLinearizable: {
      std::ostringstream what;
      what << "soak history is not linearizable: partition \""
           << report.failed_partition << "\", minimal core of "
           << report.core.size() << " ops (of " << history->size() << ")";
      violations.push_back(what.str());
      break;
    }
    case LinVerdict::kBudgetExceeded:
      result.lin_budget_exceeded = true;
      break;
  }

  result.restarts = telem->restarts;
  for (const auto& [name, hist] : sim.plane().registry().histograms()) {
    if (name == "election_stabilization_ms") {
      result.stabilization_span_ms.merge(hist);
    } else if (name.rfind("consensus_decide_latency_ms", 0) == 0) {
      result.decide_latency_ms.merge(hist);
    }
  }
  if (log != nullptr) {
    std::fprintf(log,
                 "[soak] %d eras, %d churns, %d restarts, %" PRIu64
                 "/%" PRIu64 " ops completed, %" PRIu64
                 " compactions, %zu violations\n",
                 result.eras, result.churns, result.restarts,
                 result.ops_completed, result.ops_submitted,
                 result.compactions, result.violations.size());
  }
  return result;
}

}  // namespace lls
