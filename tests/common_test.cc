// Unit tests for the common kernel: serialization, RNG, metrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialization.h"
#include "common/types.h"
#include "obs/histogram.h"
#include "obs/registry.h"

namespace lls {
namespace {

TEST(Serialization, RoundTripsIntegers) {
  BufWriter w;
  w.put<std::uint8_t>(0xab);
  w.put<std::uint16_t>(0xbeef);
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<std::uint64_t>(0x0123456789abcdefULL);
  w.put<std::int64_t>(-42);

  BufReader r(w.view());
  EXPECT_EQ(r.get<std::uint8_t>(), 0xab);
  EXPECT_EQ(r.get<std::uint16_t>(), 0xbeef);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<std::uint64_t>(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get<std::int64_t>(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Serialization, RoundTripsStringsAndVectors) {
  BufWriter w;
  w.put_string("hello world");
  w.put_vec<std::uint32_t>({1, 2, 3, 5, 8});
  w.put_string("");

  BufReader r(w.view());
  EXPECT_EQ(r.get_string(), "hello world");
  EXPECT_EQ(r.get_vec<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3, 5, 8}));
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.done());
}

TEST(Serialization, RoundTripsBytes) {
  Bytes blob{std::byte{1}, std::byte{2}, std::byte{255}};
  BufWriter w;
  w.put_bytes(blob);
  BufReader r(w.view());
  EXPECT_EQ(r.get_bytes(), blob);
}

TEST(Serialization, UnderflowThrows) {
  BufWriter w;
  w.put<std::uint16_t>(7);
  BufReader r(w.view());
  EXPECT_EQ(r.get<std::uint16_t>(), 7);
  EXPECT_THROW(r.get<std::uint8_t>(), SerializationError);
}

TEST(Serialization, TruncatedStringThrows) {
  BufWriter w;
  w.put<std::uint32_t>(100);  // claims 100 bytes follow; none do
  BufReader r(w.view());
  EXPECT_THROW(r.get_string(), SerializationError);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto x = rng.next_range(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 2000 draws
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(42);
  Rng child = parent.fork();
  // The child stream differs from the parent continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += child.next_u64() == parent.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Metrics, SummaryStatistics) {
  obs::Histogram s;
  for (int i = 1; i <= 100; ++i) s.record(i);
  EXPECT_EQ(s.count(), 100u);
  // Count, mean, extremes and stddev (population convention) are tracked
  // exactly; percentiles come from the streaming log-bucketed histogram,
  // within ~3.2% relative error (exact at p=0 and p=100, which read the
  // tracked min/max).
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1);
  EXPECT_DOUBLE_EQ(s.max(), 100);
  EXPECT_NEAR(s.percentile(50), 50, 50 * 0.05);
  EXPECT_NEAR(s.percentile(99), 99, 99 * 0.05);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100);
  EXPECT_NEAR(s.stddev(), 28.8661, 0.001);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("x");
  c.inc(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  obs::Histogram& h = reg.histogram("y");
  h.record(12);
  EXPECT_EQ(reg.histogram("y").count(), 1u);
}

}  // namespace
}  // namespace lls
