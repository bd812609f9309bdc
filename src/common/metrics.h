// Bucketed time series. Counters, named metrics and latency histograms
// live in the observability plane (src/obs: obs::Registry,
// obs::Histogram).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace lls {

/// Counts events into fixed-width time buckets, retaining the whole series.
class TimeSeries {
 public:
  explicit TimeSeries(Duration bucket_width) : width_(bucket_width) {}

  void record(TimePoint t, std::uint64_t by = 1) {
    auto idx = static_cast<std::size_t>(t / width_);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
    buckets_[idx] += by;
  }

  [[nodiscard]] Duration bucket_width() const { return width_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

  /// Sum of the series over [from, to).
  [[nodiscard]] std::uint64_t sum_between(TimePoint from, TimePoint to) const {
    std::uint64_t total = 0;
    auto lo = static_cast<std::size_t>(std::max<TimePoint>(from, 0) / width_);
    auto hi = static_cast<std::size_t>(std::max<TimePoint>(to, 0) / width_);
    for (std::size_t i = lo; i < std::min(hi, buckets_.size()); ++i) {
      total += buckets_[i];
    }
    return total;
  }

 private:
  Duration width_;
  std::vector<std::uint64_t> buckets_;
};

}  // namespace lls
