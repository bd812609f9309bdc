#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

void Report::param(std::string name, double value) {
  params.emplace_back(std::move(name), number(value));
}

std::string Report::full_json(const Options& opt) const {
  std::string out = "{\"workload\": " + quote(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"seconds\": " + std::to_string(opt.seconds) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") +
                    ", \"params\": {";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(params[i].first) + ": " + quote(params[i].second);
  }
  out += "}, \"end_to_end\": " + metrics_object(end_to_end) +
         ", \"per_layer\": " + metrics_object(per_layer) +
         ", \"extra\": " + metrics_object(extra) + ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(errors[i]);
  }
  return out + "]}";
}

std::string Report::result_json(bool trace) const {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_object(trace ? per_layer : end_to_end) +
         "}";
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(v, 50); }

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double wall_seconds() { return static_cast<double>(wall_ns()) / 1e9; }

}  // namespace perfbench
