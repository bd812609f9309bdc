// The load driver on both hosts: one JSON schema, the exactly-once audit
// over UDP, the measured window, and the flags a host cannot honour.
//
// UDP runs bind fixed loopback ports in [31000, 31300): below Linux's
// ephemeral range and apart from runtime_test's PID-derived block
// [20000, 30000). Each test owns its own sub-block, so ctest may run them
// in parallel.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "client/loadgen.h"

namespace lls {
namespace {

/// Every value's JSON type by path ("runs[].reads.p50_ms"); elements of an
/// array share the path "<array>[]". Types: o(bject) a(rray) s(tring)
/// n(umber) b(ool) z (null).
class JsonShape {
 public:
  explicit JsonShape(std::string text) : s_(std::move(text)) {
    value("$");
    skip_ws();
    if (i_ != s_.size()) throw std::runtime_error("trailing bytes");
  }

  std::map<std::string, std::set<char>> types;

 private:
  void value(const std::string& path) {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      types[path].insert('o');
      ++i_;
      if (skip_ws(), peek() == '}') return void(++i_);
      do {
        skip_ws();
        const std::string key = string();
        skip_ws();
        expect(':');
        value(path + "." + key);
        skip_ws();
      } while (peek() == ',' && ++i_);
      expect('}');
    } else if (c == '[') {
      types[path].insert('a');
      ++i_;
      if (skip_ws(), peek() == ']') return void(++i_);
      do {
        value(path + "[]");
        skip_ws();
      } while (peek() == ',' && ++i_);
      expect(']');
    } else if (c == '"') {
      types[path].insert('s');
      string();
    } else if (literal("true") || literal("false")) {
      types[path].insert('b');
    } else if (literal("null")) {
      types[path].insert('z');
    } else {
      const std::size_t start = i_;
      while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                                std::string("+-.eE").find(s_[i_]) !=
                                    std::string::npos)) {
        ++i_;
      }
      if (i_ == start) throw std::runtime_error("bad value at " + path);
      types[path].insert('n');
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      if (s_[i_] == '\\') ++i_;
      out += s_[i_++];
    }
    ++i_;
    return out;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }

  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++i_;
  }
  [[nodiscard]] char peek() const {
    if (i_ >= s_.size()) throw std::runtime_error("truncated JSON");
    return s_[i_];
  }
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  std::string s_;
  std::size_t i_ = 0;
};

/// Runs lls_loadgen with `args` and returns its exit status.
int loadgen_exit(const std::string& args) {
  const std::string cmd =
      std::string(LLS_LOADGEN) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// n = 3, two closed-loop clients, short windows.
LoadgenConfig small_config() {
  LoadgenConfig config;
  config.cluster_n = 3;
  config.clients = 2;
  config.start = 500 * kMillisecond;
  config.warmup = 200 * kMillisecond;
  config.duration = 1 * kSecond;
  config.drain = 5 * kSecond;
  return config;
}

LoadgenHost udp_host(std::uint16_t base_port) {
  LoadgenHost host;
  host.udp = true;
  host.udp_base_port = base_port;
  return host;
}

TEST(Loadgen, SimAndUdpWriteOneJsonSchema) {
  const std::string dir = ::testing::TempDir();
  const std::string common =
      "--n=3 --clients=2 --duration-ms=1000 --warmup-ms=200 --verify "
      "--shards=1,2";
  ASSERT_EQ(loadgen_exit(common + " --out=" + dir + "loadgen_sim.json"), 0);
  ASSERT_EQ(loadgen_exit(common + " --udp --udp-base-port=31000 --out=" +
                         dir + "loadgen_udp.json"),
            0);
  const JsonShape sim(slurp(dir + "loadgen_sim.json"));
  const JsonShape udp(slurp(dir + "loadgen_udp.json"));

  std::set<std::string> sim_keys, udp_keys;
  for (const auto& [path, t] : sim.types) sim_keys.insert(path);
  for (const auto& [path, t] : udp.types) udp_keys.insert(path);
  EXPECT_EQ(sim_keys, udp_keys);
  EXPECT_TRUE(sim_keys.count("$.runs[].leader_changes"));
  EXPECT_TRUE(sim_keys.count("$.git_sha"));

  // A host that cannot measure a field writes null; otherwise a key has
  // one type on both hosts.
  auto measured = [](std::set<char> t) {
    t.erase('z');
    return t;
  };
  for (const auto& [path, sim_types] : sim.types) {
    auto it = udp.types.find(path);
    if (it == udp.types.end()) continue;
    const std::set<char> a = measured(sim_types);
    const std::set<char> b = measured(it->second);
    EXPECT_LE(a.size(), 1u) << path;
    if (!a.empty() && !b.empty()) {
      EXPECT_EQ(a, b) << path;
    }
  }
  // Each host measures something the other cannot, and says so with null.
  EXPECT_EQ(udp.types.at("$.runs[].consensus_msgs"), std::set<char>{'z'});
  EXPECT_EQ(sim.types.at("$.runs[].datagrams_sent"), std::set<char>{'z'});
  EXPECT_EQ(sim.types.at("$.runs[].shards"), std::set<char>{'n'});
}

TEST(Loadgen, VerifyPassesItsAuditOverUdp) {
  LoadgenConfig config = small_config();
  config.verify = true;
  const LoadgenResult r = run_loadgen(config, udp_host(31100));
  EXPECT_TRUE(r.verify_ok);
  for (const std::string& e : r.verify_errors) ADD_FAILURE() << e;
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.writes.acked, 0u);
  ASSERT_TRUE(r.malformed_dropped.has_value());
  EXPECT_EQ(*r.malformed_dropped, 0u);
  EXPECT_GE(r.leader_changes, 1u);
}

/// Ops invoked before start + warmup count in `acked` but never in the
/// measured window.
void expect_warmup_excluded(const LoadgenHost& host,
                            std::uint16_t second_port) {
  LoadgenConfig config = small_config();
  config.warmup = config.duration;  // nothing is invoked in the window
  const LoadgenResult none = run_loadgen(config, host);
  EXPECT_GT(none.acked, 0u);
  EXPECT_EQ(none.reads.acked + none.writes.acked, 0u);
  EXPECT_EQ(none.throughput, 0);
  EXPECT_EQ(none.p99_ms, 0);

  config.warmup = config.duration / 2;
  LoadgenHost second = host;
  second.udp_base_port = second_port;
  const LoadgenResult half = run_loadgen(config, second);
  const std::uint64_t measured = half.reads.acked + half.writes.acked;
  EXPECT_GT(measured, 0u);
  EXPECT_LT(measured, half.acked);
  EXPECT_DOUBLE_EQ(half.throughput,
                   static_cast<double>(measured) /
                       (static_cast<double>(config.duration - config.warmup) /
                        kSecond));
}

TEST(Loadgen, WarmupOpsAreExcludedOnTheSim) {
  expect_warmup_excluded(LoadgenHost{}, 0);
}

TEST(Loadgen, WarmupOpsAreExcludedOverUdp) {
  expect_warmup_excluded(udp_host(31200), 31250);
}

TEST(Loadgen, UdpRejectsWhatItCannotHonour) {
  LoadgenConfig config = small_config();
  config.crash_leader_at = 1 * kSecond;
  EXPECT_EQ(loadgen_unsupported(config, LoadgenHost{}), "");
  EXPECT_EQ(loadgen_unsupported(config, udp_host(31300)), "crash_leader_at");
  EXPECT_THROW(run_loadgen(config, udp_host(31300)), std::invalid_argument);

  EXPECT_EQ(loadgen_exit("--udp --n=3 --clients=4 --verify --zipf=1.2 "
                         "--mode=open --crash-leader-at-ms=1000 "
                         "--warmup-ms=1000"),
            2);
  EXPECT_EQ(loadgen_exit("--udp --artifacts=never_written"), 2);
}

}  // namespace
}  // namespace lls
