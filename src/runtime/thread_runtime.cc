#include "runtime/thread_runtime.h"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "runtime/event_loop.h"

namespace lls {

// ---------------------------------------------------------------------------
// ProcessLoop: one thread + one EventLoop, implementing Runtime.
// ---------------------------------------------------------------------------

class ThreadCluster::ProcessLoop final : public Runtime {
 public:
  ProcessLoop(ThreadCluster& cluster, ProcessId id, Rng rng)
      : cluster_(cluster), id_(id), rng_(rng), loop_(*this) {}

  ~ProcessLoop() override { stop(); }

  void set_actor(std::unique_ptr<Actor> actor) { actor_ = std::move(actor); }
  [[nodiscard]] bool has_actor() const { return actor_ != nullptr; }
  /// Where the router queues deliveries and post() queues calls. Open from
  /// construction, so peers' on_start traffic waits here for launch().
  EventLoop& loop() { return loop_; }

  void launch() {
    thread_ = std::thread([this]() { run(); });
  }

  /// Closing the EventLoop drops what is queued, refuses more, and ends
  /// run() after its current callback.
  void stop() {
    loop_.close();
    if (thread_.joinable()) thread_.join();
  }

  void crash() {
    crashed_.store(true);
    loop_.close();
  }

  [[nodiscard]] bool crashed() const { return crashed_.load(); }

  // Runtime ------------------------------------------------------------------
  [[nodiscard]] ProcessId id() const override { return id_; }
  [[nodiscard]] int n() const override { return cluster_.n(); }
  [[nodiscard]] TimePoint now() const override { return cluster_.now(); }

  void send(ProcessId dst, MessageType type, BytesView payload) override {
    cluster_.route(id_, dst, type, payload);
  }

  TimerId set_timer(Duration delay) override { return loop_.set_timer(delay); }
  void cancel_timer(TimerId timer) override { loop_.cancel_timer(timer); }

  Rng& rng() override { return rng_; }

 private:
  void run() {
    if (loop_.closed()) return;
    actor_->on_start(*this);
    do {
      loop_.run_due(*actor_);
    } while (loop_.wait());
  }

  ThreadCluster& cluster_;
  ProcessId id_;
  Rng rng_;
  std::unique_ptr<Actor> actor_;
  EventLoop loop_;
  std::atomic<bool> crashed_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// ThreadCluster.
// ---------------------------------------------------------------------------

ThreadCluster::ThreadCluster(ThreadClusterConfig config,
                             const LinkFactory& links)
    : config_(config), epoch_(std::chrono::steady_clock::now()) {
  if (config.n < 2) throw std::invalid_argument("ThreadCluster needs n >= 2");
  Rng master(config.seed);
  links_.resize(static_cast<std::size_t>(config.n) *
                static_cast<std::size_t>(config.n));
  for (ProcessId src = 0; src < static_cast<ProcessId>(config.n); ++src) {
    for (ProcessId dst = 0; dst < static_cast<ProcessId>(config.n); ++dst) {
      auto& slot = links_[static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(config.n) +
                          dst];
      if (src != dst) slot.model = links(src, dst);
      slot.rng = master.fork();
    }
  }
  for (int p = 0; p < config.n; ++p) {
    loops_.push_back(std::make_unique<ProcessLoop>(
        *this, static_cast<ProcessId>(p), master.fork()));
  }
}

ThreadCluster::~ThreadCluster() { stop(); }

void ThreadCluster::set_actor(ProcessId p, std::unique_ptr<Actor> actor) {
  loops_.at(p)->set_actor(std::move(actor));
}

void ThreadCluster::start() {
  if (started_) return;
  for (auto& loop : loops_) {
    if (!loop->has_actor()) throw std::logic_error("actor missing for process");
  }
  started_ = true;
  for (auto& loop : loops_) loop->launch();
}

void ThreadCluster::stop() {
  for (auto& loop : loops_) loop->stop();
}

void ThreadCluster::crash(ProcessId p) { loops_.at(p)->crash(); }

bool ThreadCluster::alive(ProcessId p) const { return !loops_.at(p)->crashed(); }

void ThreadCluster::post(ProcessId p, std::function<void()> fn) {
  loops_.at(p)->loop().post(std::move(fn));
}

TimePoint ThreadCluster::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ThreadCluster::route(ProcessId src, ProcessId dst, MessageType type,
                          BytesView payload) {
  if (dst >= static_cast<ProcessId>(config_.n) || dst == src) return;
  sent_count_.fetch_add(1, std::memory_order_relaxed);

  LinkDecision decision;
  TimePoint t = now();
  {
    std::scoped_lock lock(router_mu_);
    auto& slot = links_[static_cast<std::size_t>(src) *
                            static_cast<std::size_t>(config_.n) +
                        dst];
    decision = slot.model->on_send(t, type, slot.rng);
  }
  if (!decision.deliver) return;
  loops_[dst]->loop().deliver_at(t + decision.delay, src, type,
                                 Bytes(payload.begin(), payload.end()));
}

}  // namespace lls
