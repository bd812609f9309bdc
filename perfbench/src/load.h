// Client-side op log shared by the sim and UDP workloads: when each op was
// due, when (if ever) it completed, which key it used and whether it wrote.
// Latency is always taken from the op's scheduled send time.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.h"
#include "report.h"
#include "shard/sharded_replica.h"

namespace perfbench {

struct OpLog {
  static constexpr lls::TimePoint kPending = -1;

  std::vector<lls::TimePoint> scheduled;
  std::vector<lls::TimePoint> completed;  ///< kPending until acked
  std::vector<std::uint8_t> is_write;
  std::vector<std::uint16_t> key;
  /// Request id as the client sees it: (origin, session seq).
  std::vector<lls::ProcessId> origin;
  std::vector<std::uint64_t> seq;

  std::size_t add(lls::TimePoint due, bool write, std::uint16_t k) {
    scheduled.push_back(due);
    completed.push_back(kPending);
    is_write.push_back(write ? 1 : 0);
    key.push_back(k);
    origin.push_back(lls::kNoProcess);
    seq.push_back(0);
    return scheduled.size() - 1;
  }
  [[nodiscard]] std::size_t size() const { return scheduled.size(); }
  [[nodiscard]] std::uint64_t acked() const;
};

/// Latency percentiles of the acked ops scheduled in [from, to), in ms.
struct LatencySummary {
  double p50_ms = 0, p99_ms = 0, read_p99_ms = 0, write_p99_ms = 0;
  std::uint64_t samples = 0, read_samples = 0, write_samples = 0;
  /// Acked ops scheduled in the window per second of window.
  double ops_per_s = 0;
};
LatencySummary summarize(const OpLog& ops, lls::TimePoint from,
                         lls::TimePoint to);

/// Mean over `instants` of the time from each instant to the first
/// completion of an op scheduled at or after it, in ms. Instants with no
/// such completion are skipped.
double unavail_ms(const OpLog& ops, const std::vector<lls::TimePoint>& instants);

/// Store key of key index k.
std::string key_name(std::uint16_t k);

/// The 16-byte value written by request (origin, seq). Every write stores
/// its own id, so the final stores depend on which writes were applied and
/// in which order.
std::string put_value(lls::ProcessId origin, std::uint64_t seq);

/// End-of-run audit of `ops` over the live replicas (all read after their
/// loops stopped):
/// - the store digests agree;
/// - every acked write was applied at every replica;
/// - each key's final value is the id of a write to that key, and no acked
///   write to the key was submitted after that write was acked (the value
///   is not older than the last acked write).
/// KvCore itself applies each (origin, seq) at most once; the audit cannot
/// see a second apply except through a stale final value.
void audit_replicas(Report& report,
                    const std::vector<const lls::ShardedKvReplica*>& replicas,
                    const OpLog& ops);

/// Writes one JSONL request span per op ("kind":"request"), carrying the
/// (origin, seq) request id, scheduled and completed times (-1 = never).
void write_request_spans(std::FILE* out, const OpLog& ops);

/// Records the summary's sample counts next to its percentiles.
void note_samples(Report& report, const LatencySummary& s);

}  // namespace perfbench
