#include "load.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace perfbench {

std::uint64_t OpLog::acked() const {
  return static_cast<std::uint64_t>(
      std::count_if(completed.begin(), completed.end(),
                    [](lls::TimePoint t) { return t != kPending; }));
}

LatencySummary summarize(const OpLog& ops, lls::TimePoint from,
                         lls::TimePoint to) {
  std::vector<double> all, reads, writes;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops.scheduled[i] < from || ops.scheduled[i] >= to) continue;
    if (ops.completed[i] == OpLog::kPending) continue;
    const double ms =
        static_cast<double>(ops.completed[i] - ops.scheduled[i]) / 1000.0;
    all.push_back(ms);
    (ops.is_write[i] != 0 ? writes : reads).push_back(ms);
  }
  LatencySummary s;
  s.samples = all.size();
  s.read_samples = reads.size();
  s.write_samples = writes.size();
  s.p50_ms = percentile(all, 50);
  s.p99_ms = percentile(all, 99);
  s.read_p99_ms = percentile(reads, 99);
  s.write_p99_ms = percentile(writes, 99);
  const double window_s = static_cast<double>(to - from) / 1e6;
  s.ops_per_s = window_s > 0 ? static_cast<double>(all.size()) / window_s : 0;
  return s;
}

double unavail_ms(const OpLog& ops,
                  const std::vector<lls::TimePoint>& instants) {
  // Suffix minimum of completion time over ops sorted by scheduled time.
  std::vector<std::size_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ops.scheduled[a] < ops.scheduled[b];
  });
  std::vector<lls::TimePoint> suffix_min(order.size() + 1, lls::kTimeNever);
  for (std::size_t k = order.size(); k-- > 0;) {
    const lls::TimePoint done = ops.completed[order[k]];
    suffix_min[k] = std::min(
        suffix_min[k + 1], done == OpLog::kPending ? lls::kTimeNever : done);
  }
  double total = 0;
  std::size_t counted = 0;
  for (lls::TimePoint t : instants) {
    auto it = std::lower_bound(
        order.begin(), order.end(), t,
        [&](std::size_t i, lls::TimePoint v) { return ops.scheduled[i] < v; });
    const lls::TimePoint first =
        suffix_min[static_cast<std::size_t>(it - order.begin())];
    if (first == lls::kTimeNever) continue;
    total += static_cast<double>(first - t) / 1000.0;
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0;
}

std::string key_name(std::uint16_t k) { return "k" + std::to_string(k); }

std::string put_value(lls::ProcessId origin, std::uint64_t seq) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%04x%012llx", origin & 0xffffu,
                static_cast<unsigned long long>(seq & 0xffffffffffffULL));
  return buf;
}

void audit_replicas(Report& report,
                    const std::vector<const lls::ShardedKvReplica*>& replicas,
                    const OpLog& ops) {
  if (replicas.empty()) {
    report.fail("audit: no live replica");
    return;
  }
  // Writes by the value they store, and per key the latest scheduled time
  // of an acked write.
  std::unordered_map<std::string, std::size_t> write_of;
  std::unordered_map<std::uint16_t, lls::TimePoint> last_acked_due;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops.is_write[i] == 0) continue;
    write_of.emplace(put_value(ops.origin[i], ops.seq[i]), i);
    if (ops.completed[i] == OpLog::kPending) continue;
    auto [it, fresh] = last_acked_due.emplace(ops.key[i], ops.scheduled[i]);
    if (!fresh) it->second = std::max(it->second, ops.scheduled[i]);
  }

  const std::uint64_t digest = replicas.front()->group(0).store().digest();
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    const lls::ShardedKvReplica& rep = *replicas[r];
    const std::string who = "audit: replica " + std::to_string(r);
    if (rep.group(0).store().digest() != digest) {
      report.fail(who + " store digest differs from replica 0");
    }
    std::uint64_t lost = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops.is_write[i] != 0 && ops.completed[i] != OpLog::kPending &&
          !rep.has_applied(ops.origin[i], ops.seq[i])) {
        ++lost;
      }
    }
    if (lost > 0) {
      report.fail(who + " misses " + std::to_string(lost) + " acked writes");
    }
    const auto& data = rep.group(0).store().data();
    for (const auto& [k, last_due] : last_acked_due) {
      const auto kv = data.find(key_name(k));
      if (kv == data.end()) {
        report.fail(who + " has no value for acked key " + key_name(k));
        continue;
      }
      const auto w = write_of.find(kv->second);
      if (w == write_of.end() || ops.key[w->second] != k) {
        report.fail(who + " holds " + kv->first + "=" + kv->second +
                    ", which no write to that key stored");
        continue;
      }
      const lls::TimePoint acked_at = ops.completed[w->second];
      if (acked_at != OpLog::kPending && last_due > acked_at) {
        report.fail(who + " holds a stale " + kv->first + ": its write was "
                    "acked before a later acked write to it was submitted");
      }
    }
  }
}

void write_request_spans(std::FILE* out, const OpLog& ops) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::fprintf(out,
                 "{\"kind\":\"request\",\"layer\":\"client\",\"origin\":%u,"
                 "\"seq\":%llu,\"write\":%u,\"scheduled_us\":%lld,"
                 "\"completed_us\":%lld}\n",
                 ops.origin[i], static_cast<unsigned long long>(ops.seq[i]),
                 ops.is_write[i], static_cast<long long>(ops.scheduled[i]),
                 static_cast<long long>(ops.completed[i]));
  }
}

void note_samples(Report& report, const LatencySummary& s) {
  report.note("latency_samples", static_cast<double>(s.samples), "count");
  report.note("read_latency_samples", static_cast<double>(s.read_samples),
              "count");
  report.note("write_latency_samples", static_cast<double>(s.write_samples),
              "count");
}

}  // namespace perfbench
