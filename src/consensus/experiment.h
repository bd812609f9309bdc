// Consensus experiment harness: runs a workload of proposals through either
// the paper's communication-efficient stack (CeNode) or the rotating-
// coordinator baseline, under a configurable network and crash plan, and
// evaluates safety (agreement, validity), liveness (all proposals decided
// everywhere correct), latency and message cost. Drives the T3/F2/T4/T5
// benchmarks and the consensus property tests.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "consensus/node.h"
#include "consensus/rotating_consensus.h"
#include "net/link.h"
#include "obs/histogram.h"
#include "sim/simulator.h"

namespace lls {

enum class ConsensusAlgo { kCeLog, kRotating };

struct ConsensusExperiment {
  int n = 5;
  std::uint64_t seed = 1;
  ConsensusAlgo algo = ConsensusAlgo::kCeLog;
  LinkFactory links;
  std::vector<std::pair<ProcessId, TimePoint>> crashes;

  CeOmegaConfig ce;
  LogConsensusConfig log_config;
  RotatingConsensusConfig rotating;

  /// Workload: `num_values` proposals, one every `propose_interval`,
  /// starting at `first_propose`.
  int num_values = 50;
  Duration propose_interval = 50 * kMillisecond;
  TimePoint first_propose = 500 * kMillisecond;

  /// Submitting process for the CE stack; kNoProcess = round-robin. (The
  /// rotating baseline follows the Chandra–Toueg model instead: every
  /// process holds an initial value for each instance.)
  ProcessId proposer = kNoProcess;

  TimePoint horizon = 60 * kSecond;
  /// Quiescence window checked at the end of the run.
  Duration trailing_window = 2 * kSecond;
};

struct ConsensusResult {
  // Safety.
  bool agreement_ok = false;  ///< no two processes disagree on any instance
  bool validity_ok = false;   ///< every decided value was proposed (or no-op)

  // Liveness.
  int values_proposed = 0;
  int values_decided_everywhere = 0;  ///< at every correct process
  bool all_decided = false;

  // Performance.
  /// Propose -> first process decides (us).
  obs::Histogram latency_first;
  /// Propose -> all correct processes decide (us).
  obs::Histogram latency_all;
  std::uint64_t total_msgs = 0;
  /// Consensus-class messages per decided value (excludes Omega heartbeats,
  /// which are accounted separately — see the T2 benchmark).
  double msgs_per_decision = 0.0;
  /// All messages (including the leader oracle's) per decided value.
  double msgs_per_decision_total = 0.0;

  // Communication efficiency: who still sends after the workload is done.
  std::set<ProcessId> trailing_senders;
  std::uint64_t trailing_msgs = 0;

  std::set<ProcessId> correct;
  std::uint64_t total_events = 0;
};

ConsensusResult run_consensus_experiment(const ConsensusExperiment& exp);

/// Workload value codec: unique, self-describing payloads.
Bytes make_value(std::uint64_t id);
std::uint64_t value_id(const Bytes& value);

}  // namespace lls
