// Tests of the real-time runtimes: the thread cluster and the UDP node.
// Durations are kept short; assertions allow generous scheduling slack.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/topology.h"
#include "omega/ce_omega.h"
#include "shard/sharded_replica.h"
#include "runtime/event_loop.h"
#include "runtime/thread_runtime.h"
#include "runtime/udp_runtime.h"

namespace lls {
namespace {

CeOmegaConfig fast_omega() {
  CeOmegaConfig c;
  c.eta = 2 * kMillisecond;
  c.initial_timeout = 8 * kMillisecond;
  c.additive_step = 4 * kMillisecond;
  return c;
}

LogConsensusConfig fast_log() {
  LogConsensusConfig c;
  c.retry_period = 5 * kMillisecond;
  return c;
}

/// Polls each process's Omega output on its own loop thread until all of
/// them name the same process, or 5 s of wall time pass. Returns the last
/// sample (kNoProcess where a sample did not come back). Call it after a
/// settle time: at start every process trusts process 0 by default.
std::vector<ProcessId> await_common_leader(
    int n, const std::function<void(ProcessId, std::function<void()>)>& post,
    const std::function<ProcessId(ProcessId)>& leader_of) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<ProcessId> leaders(static_cast<std::size_t>(n), kNoProcess);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto sample = std::make_shared<std::vector<std::atomic<ProcessId>>>(
        static_cast<std::size_t>(n));
    for (auto& l : *sample) l.store(kNoProcess);
    auto done = std::make_shared<std::atomic<int>>(0);
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      post(p, [=]() {
        (*sample)[p].store(leader_of(p));
        done->fetch_add(1);
      });
    }
    for (int i = 0; i < 100 && done->load() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
      leaders[p] = (*sample)[p].load();
    }
    const bool agreed =
        leaders[0] != kNoProcess &&
        std::all_of(leaders.begin(), leaders.end(),
                    [&](ProcessId l) { return l == leaders[0]; });
    if (agreed || std::chrono::steady_clock::now() > deadline) return leaders;
  }
}

/// Omega's promise with every process alive: all trust the same process.
/// Which one is not promised — after a false suspicion (wall-clock timers
/// oversleep under load) any process may end up trusted.
void expect_common_live_leader(const std::vector<ProcessId>& leaders) {
  ASSERT_LT(leaders[0], static_cast<ProcessId>(leaders.size()));
  for (ProcessId l : leaders) EXPECT_EQ(l, leaders[0]);
}

/// Simple ping actor for plumbing tests.
class Ping final : public Actor {
 public:
  void on_start(Runtime& rt) override {
    if (rt.id() == 0) rt.send(1, 0x0900, {});
    timer_ = rt.set_timer(5 * kMillisecond);
  }
  void on_message(Runtime& rt, ProcessId src, MessageType, BytesView) override {
    ++received;
    if (rt.id() == 1 && received == 1) rt.send(src, 0x0900, {});
  }
  void on_timer(Runtime& rt, TimerId) override {
    ++ticks;
    timer_ = rt.set_timer(5 * kMillisecond);
  }
  std::atomic<int> received{0};
  std::atomic<int> ticks{0};

 private:
  TimerId timer_ = kInvalidTimer;
};

TEST(ThreadCluster, DeliversMessagesAndFiresTimers) {
  ThreadCluster cluster({2, 1}, make_all_timely({100, 500}));
  auto& a = cluster.emplace_actor<Ping>(0);
  auto& b = cluster.emplace_actor<Ping>(1);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cluster.stop();
  EXPECT_GE(b.received.load(), 1);
  EXPECT_GE(a.received.load(), 1);  // pong came back
  EXPECT_GE(a.ticks.load(), 5);
}

TEST(ThreadCluster, ElectsLeaderInRealTime) {
  ThreadCluster cluster({3, 2}, make_all_timely({100, 500}));
  std::vector<CeOmega*> omegas;
  for (ProcessId p = 0; p < 3; ++p) {
    omegas.push_back(&cluster.emplace_actor<CeOmega>(p, fast_omega()));
  }
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::vector<ProcessId> leaders = await_common_leader(
      3, [&](ProcessId p, std::function<void()> fn) {
        cluster.post(p, std::move(fn));
      },
      [&](ProcessId p) { return omegas[p]->leader(); });
  cluster.stop();
  expect_common_live_leader(leaders);
}

TEST(ThreadCluster, FailsOverAfterCrash) {
  ThreadCluster cluster({3, 3}, make_all_timely({100, 500}));
  std::vector<CeOmega*> omegas;
  for (ProcessId p = 0; p < 3; ++p) {
    omegas.push_back(&cluster.emplace_actor<CeOmega>(p, fast_omega()));
  }
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  cluster.crash(0);
  // Poll until the survivors converge on p1 (wall-clock timers can be
  // starved under parallel test load; allow a generous deadline).
  std::vector<ProcessId> leaders(3, kNoProcess);
  for (int round = 0; round < 250; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::atomic<int> done{0};
    for (ProcessId p = 1; p < 3; ++p) {
      cluster.post(p, [&, p]() {
        leaders[p] = omegas[p]->leader();
        done.fetch_add(1);
      });
    }
    for (int i = 0; i < 100 && done.load() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (leaders[1] == 1u && leaders[2] == 1u) break;
  }
  cluster.stop();
  EXPECT_EQ(leaders[1], 1u);
  EXPECT_EQ(leaders[2], 1u);
  EXPECT_FALSE(cluster.alive(0));
}

TEST(ThreadCluster, ReplicatedKvEndToEnd) {
  ThreadCluster cluster({3, 4}, make_all_timely({100, 500}));
  std::vector<ShardedKvReplica*> replicas;
  for (ProcessId p = 0; p < 3; ++p) {
    replicas.push_back(&cluster.emplace_actor<ShardedKvReplica>(
        p, ShardedKvReplica::Options{.omega = fast_omega(),
                                     .consensus = fast_log(),
                                     .sharded = ShardedReplicaConfig{}}));
  }
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::atomic<bool> put_done{false};
  cluster.post(1, [&]() {
    replicas[1]->submit(KvOp::kPut, "greeting", "hello", "",
                        [&](const KvResult&) { put_done.store(true); });
  });
  for (int i = 0; i < 200 && !put_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(put_done.load());

  // Let decides propagate, then check convergence on the owning threads.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::vector<std::uint64_t> digests(3, 0);
  std::atomic<int> done{0};
  for (ProcessId p = 0; p < 3; ++p) {
    cluster.post(p, [&, p]() {
      digests[p] = replicas[p]->group(0).store().digest();
      done.fetch_add(1);
    });
  }
  for (int i = 0; i < 100 && done.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  ASSERT_EQ(done.load(), 3);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

TEST(ThreadCluster, LossyLinksStillConverge) {
  ThreadCluster cluster({3, 5},
                        make_all_fair_lossy({0.3, 4, {100, 2 * kMillisecond}}));
  std::vector<CeOmega*> omegas;
  for (ProcessId p = 0; p < 3; ++p) {
    omegas.push_back(&cluster.emplace_actor<CeOmega>(p, fast_omega()));
  }
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  std::vector<ProcessId> leaders(3, kNoProcess);
  std::atomic<int> done{0};
  for (ProcessId p = 0; p < 3; ++p) {
    cluster.post(p, [&, p]() {
      leaders[p] = omegas[p]->leader();
      done.fetch_add(1);
    });
  }
  for (int i = 0; i < 100 && done.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  ASSERT_EQ(done.load(), 3);
  EXPECT_EQ(leaders[0], leaders[1]);
  EXPECT_EQ(leaders[1], leaders[2]);
}

// --- UDP ---------------------------------------------------------------------

std::uint16_t test_port_base() {
  // Derive from the PID to dodge collisions between parallel test runs:
  // each process gets its own block of 10 ports, below Linux's ephemeral
  // range.
  return static_cast<std::uint16_t>(20000 + (::getpid() % 1000) * 10);
}

TEST(UdpRuntime, ElectsLeaderOverLocalhost) {
  const int n = 3;
  const std::uint16_t base = test_port_base();
  std::vector<std::unique_ptr<UdpNode>> nodes;
  std::vector<CeOmega*> omegas;
  for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
    auto actor = std::make_unique<CeOmega>(fast_omega());
    omegas.push_back(actor.get());
    UdpNodeConfig cfg;
    cfg.id = p;
    cfg.n = n;
    cfg.base_port = base;
    nodes.push_back(std::make_unique<UdpNode>(cfg, std::move(actor)));
  }
  for (auto& node : nodes) node->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  std::vector<ProcessId> leaders = await_common_leader(
      n, [&](ProcessId p, std::function<void()> fn) {
        nodes[p]->post(std::move(fn));
      },
      [&](ProcessId p) { return omegas[p]->leader(); });
  for (auto& node : nodes) node->stop();
  expect_common_live_leader(leaders);
}

/// Sends one datagram from a fresh, unbound UDP socket to 127.0.0.1:port.
void send_datagram(std::uint16_t port, const Bytes& frame) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const auto sent =
      ::sendto(fd, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ::close(fd);
  ASSERT_EQ(sent, static_cast<ssize_t>(frame.size()));
}

/// A UdpNode frame: u32 src + u16 type header, then `body_len` zero bytes.
Bytes frame_of(ProcessId src, MessageType type, std::size_t body_len) {
  Bytes frame(sizeof(std::uint32_t) + sizeof(MessageType) + body_len);
  std::memcpy(frame.data(), &src, sizeof(std::uint32_t));
  std::memcpy(frame.data() + sizeof(std::uint32_t), &type, sizeof(type));
  return frame;
}

TEST(UdpRuntime, MalformedDatagramsAreDroppedAndCounted) {
  // A body that will not decode used to throw out of the loop thread and
  // terminate the process. Truncated ALIVE (7 bytes on the wire) and ACCEPT
  // frames must instead be dropped, counted, and leave the node serving.
  UdpNodeConfig cfg;
  cfg.id = 0;
  cfg.n = 2;
  cfg.base_port = static_cast<std::uint16_t>(test_port_base() + 8);
  UdpNode node(cfg, std::make_unique<ShardedKvReplica>(
                        ShardedKvReplica::Options{
                            .omega = fast_omega(),
                            .consensus = fast_log(),
                            .sharded = ShardedReplicaConfig{}}));
  node.start();
  send_datagram(cfg.base_port, frame_of(1, msg_type::kCeOmegaAlive, 1));
  send_datagram(cfg.base_port, frame_of(1, msg_type::kAccept, 3));

  // Read the counter on the loop thread; each read is also a post() the
  // node must still answer.
  auto dropped = [&node]() -> std::uint64_t {
    std::promise<std::uint64_t> value;
    std::future<std::uint64_t> got = value.get_future();
    node.post([&]() {
      value.set_value(
          node.obs().registry().counter("udp.malformed_dropped").value());
    });
    EXPECT_EQ(got.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    return got.get();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::uint64_t count = dropped();
  while (count < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count = dropped();
  }
  node.stop();
  EXPECT_EQ(count, 2u);
}

// --- EventLoop, on a hand-cranked clock -------------------------------------

/// A Runtime on a hand-cranked clock whose timers live in its EventLoop, as
/// in both real-time hosts.
class ManualHost final : public Runtime {
 public:
  [[nodiscard]] ProcessId id() const override { return 0; }
  [[nodiscard]] int n() const override { return 2; }
  [[nodiscard]] TimePoint now() const override { return now_; }
  void send(ProcessId, MessageType, BytesView) override {}
  TimerId set_timer(Duration delay) override { return loop.set_timer(delay); }
  void cancel_timer(TimerId timer) override { loop.cancel_timer(timer); }
  Rng& rng() override { return rng_; }

  TimePoint now_ = 0;
  EventLoop loop{*this};

 private:
  Rng rng_{1};
};

/// Logs every callback; re-arms a zero-delay timer from the first on_timer.
class Recorder final : public Actor {
 public:
  void on_start(Runtime&) override {}
  void on_message(Runtime&, ProcessId src, MessageType, BytesView) override {
    log.push_back("msg" + std::to_string(src));
  }
  void on_timer(Runtime& rt, TimerId id) override {
    log.push_back("timer" + std::to_string(id));
    if (rearmed == kInvalidTimer) rearmed = rt.set_timer(0);
  }
  std::vector<std::string> log;
  TimerId rearmed = kInvalidTimer;
};

TEST(EventLoop, PassRunsWhatWasDueAtEntryInDeadlineOrder) {
  ManualHost host;
  EventLoop& loop = host.loop;
  Recorder actor;
  const TimerId late = loop.set_timer(30);
  const TimerId cancelled = loop.set_timer(5);
  const TimerId due = loop.set_timer(20);
  loop.cancel_timer(cancelled);
  loop.deliver_at(10, 1, 0x0900, {});
  loop.post([&]() { actor.log.push_back("call"); });
  host.now_ = 25;

  loop.run_due(actor);
  // The call was due when posted (t=0); the timer re-armed at t=25 waits.
  EXPECT_EQ(actor.log, (std::vector<std::string>{
                           "call", "msg1", "timer" + std::to_string(due)}));
  EXPECT_EQ(loop.next_deadline(), 25);

  loop.run_due(actor);
  EXPECT_EQ(actor.log.back(), "timer" + std::to_string(actor.rearmed));
  EXPECT_EQ(loop.next_deadline(), 30);
  host.now_ = 30;
  loop.run_due(actor);
  EXPECT_EQ(actor.log.back(), "timer" + std::to_string(late));
  EXPECT_EQ(actor.log.size(), 5u);
}

TEST(EventLoop, CloseDropsQueuedWorkAndRefusesMore) {
  ManualHost host;
  EventLoop& loop = host.loop;
  Recorder actor;
  loop.set_timer(0);
  loop.deliver_at(0, 1, 0x0900, {});
  loop.close();
  loop.post([&]() { actor.log.push_back("call"); });
  loop.deliver_at(0, 1, 0x0900, {});
  EXPECT_EQ(loop.next_deadline(), kTimeNever);
  loop.run_due(actor);
  EXPECT_TRUE(actor.log.empty());
}

// --- Both runtimes: the due-at-entry pass ------------------------------------
//
// A loop that serves one kind of work in strict priority over another
// starves the second whenever the first never runs dry. In Omega's terms a
// process whose inbox is never read has links that lose every message. Each
// case below keeps one kind of work permanently due and checks that a
// message and a posted call still get through.

constexpr MessageType kProbe = 0x0901;

/// Process 0: counts deliveries; optionally re-arms a zero-delay timer from
/// every on_timer, so a timer is always due.
class Spinner final : public Actor {
 public:
  explicit Spinner(bool spin) : spin_(spin) {}
  void on_start(Runtime& rt) override {
    if (spin_) rt.set_timer(0);
  }
  void on_message(Runtime&, ProcessId, MessageType type, BytesView) override {
    if (type == kProbe) received.store(true);
  }
  void on_timer(Runtime& rt, TimerId) override {
    fires.fetch_add(1);
    rt.set_timer(0);
  }
  std::atomic<bool> received{false};
  std::atomic<std::uint64_t> fires{0};

 private:
  bool spin_;
};

/// Process 1: sends process 0 one probe, 20 ms after start, by which time
/// process 0's busy work is surely under way.
class Prober final : public Actor {
 public:
  void on_start(Runtime& rt) override { rt.set_timer(20 * kMillisecond); }
  void on_message(Runtime&, ProcessId, MessageType, BytesView) override {}
  void on_timer(Runtime& rt, TimerId) override { rt.send(0, kProbe, {}); }
};

/// Two processes on ThreadCluster, over timely in-process links.
class ThreadPair {
 public:
  void start(std::unique_ptr<Actor> p0, std::unique_ptr<Actor> p1) {
    cluster_.set_actor(0, std::move(p0));
    cluster_.set_actor(1, std::move(p1));
    cluster_.start();
  }
  void post(ProcessId p, std::function<void()> fn) {
    cluster_.post(p, std::move(fn));
  }
  void stop() { cluster_.stop(); }

 private:
  ThreadCluster cluster_{{2, 7}, make_all_timely({100, 500})};
};

/// Two UdpNodes over loopback.
class UdpPair {
 public:
  void start(std::unique_ptr<Actor> p0, std::unique_ptr<Actor> p1) {
    std::unique_ptr<Actor> actors[] = {std::move(p0), std::move(p1)};
    for (ProcessId p = 0; p < 2; ++p) {
      UdpNodeConfig cfg;
      cfg.id = p;
      cfg.n = 2;
      cfg.base_port = static_cast<std::uint16_t>(test_port_base() + 5);
      nodes_.push_back(std::make_unique<UdpNode>(cfg, std::move(actors[p])));
    }
    for (auto& node : nodes_) node->start();
  }
  void post(ProcessId p, std::function<void()> fn) {
    nodes_[p]->post(std::move(fn));
  }
  void stop() {
    for (auto& node : nodes_) node->stop();
  }

 private:
  std::vector<std::unique_ptr<UdpNode>> nodes_;
};

template <typename Pair>
class NoStarvation : public ::testing::Test {
 protected:
  /// Polls `done` until it holds or 2 s of wall time pass.
  static bool within_deadline(const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  Pair pair_;
};

struct PairName {
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, ThreadPair> ? "ThreadCluster" : "UdpNode";
  }
};
using Pairs = ::testing::Types<ThreadPair, UdpPair>;
TYPED_TEST_SUITE(NoStarvation, Pairs, PairName);

TYPED_TEST(NoStarvation, ZeroDelayTimerLeavesRoomForMessagesAndPosts) {
  auto spinner = std::make_unique<Spinner>(/*spin=*/true);
  Spinner& s = *spinner;
  this->pair_.start(std::move(spinner), std::make_unique<Prober>());
  std::atomic<bool> posted{false};
  this->pair_.post(0, [&]() { posted.store(true); });
  const bool served = this->within_deadline(
      [&]() { return s.received.load() && posted.load(); });
  this->pair_.stop();
  EXPECT_TRUE(served) << "message " << s.received.load() << ", post "
                      << posted.load() << ", timer fires " << s.fires.load();
  EXPECT_GT(s.fires.load(), 0u);
}

TYPED_TEST(NoStarvation, SelfRepostingCallLeavesRoomForMessages) {
  auto spinner = std::make_unique<Spinner>(/*spin=*/false);
  Spinner& s = *spinner;
  this->pair_.start(std::move(spinner), std::make_unique<Prober>());
  std::atomic<bool> keep_going{true};
  std::atomic<std::uint64_t> runs{0};
  std::function<void()> again = [&]() {
    runs.fetch_add(1);
    if (keep_going.load()) this->pair_.post(0, again);
  };
  this->pair_.post(0, again);
  const bool served = this->within_deadline([&]() { return s.received.load(); });
  keep_going.store(false);
  this->pair_.stop();
  EXPECT_TRUE(served) << "posted call ran " << runs.load() << " times";
  EXPECT_GT(runs.load(), 0u);
}

}  // namespace
}  // namespace lls
