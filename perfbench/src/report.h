// Result of one benchmark invocation, plus the small measurement helpers
// every workload shares (exact percentiles, process CPU, peak RSS, wall
// clock, operator-new count).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSONL); empty = don't write.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Untraced-run metrics (the BENCHMARK.json end_to_end set).
  std::vector<Metric> end_to_end;
  /// Traced-run metrics (the BENCHMARK.json per_layer set).
  std::vector<Metric> per_layer;
  /// Figures printed for the reader but not gated: sample counts,
  /// fail_ratio, repetition counts, the checks that ran.
  std::vector<Metric> extra;
  /// Workload parameters, recorded with every result.
  std::vector<std::pair<std::string, std::string>> params;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
  void param(std::string name, std::string value) {
    params.emplace_back(std::move(name), std::move(value));
  }
  void param(std::string name, double value);

  /// Full report as one JSON object (params, every metric group, errors).
  [[nodiscard]] std::string full_json(const Options& opt) const;
  /// The result line: exactly correct/attempted/failed/metrics, with the
  /// end-to-end or the per-layer group depending on `trace`.
  [[nodiscard]] std::string result_json(bool trace) const;
};

/// Exact nearest-rank percentile (p in [0, 100]); sorts `v` in place.
double percentile(std::vector<double>& v, double p);
/// Median of a small sample (copy).
double median(std::vector<double> v);

/// Process CPU time (all threads), seconds.
double cpu_seconds();
/// CPU time of the calling thread, seconds.
double thread_cpu_seconds();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();
/// Monotonic wall clock, seconds.
double wall_seconds();
/// Monotonic wall clock, nanoseconds.
std::uint64_t wall_ns();

/// Global operator-new calls so far (all threads; see alloc_count.cc).
std::uint64_t allocs();

}  // namespace perfbench
