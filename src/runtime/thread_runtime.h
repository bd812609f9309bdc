// Real-time, thread-per-process runtime.
//
// Hosts the same Actor protocols as the simulator, but on wall-clock time:
// each process runs its own event loop thread (so actor callbacks stay
// serialized), and an in-process router applies the very same LinkModel
// matrix used in simulation — drop and delay decisions included — before
// handing messages to the destination's EventLoop. This runs the paper's
// algorithms live, with real concurrency and real timers.
//
// Concurrency notes (CP.* guidelines): all shared state is guarded by each
// process's EventLoop mutex plus one router mutex; callbacks never run under
// any lock; threads are joined in stop()/destructor.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/actor.h"
#include "net/link.h"

namespace lls {

struct ThreadClusterConfig {
  int n = 0;
  std::uint64_t seed = 1;
};

class ThreadCluster {
 public:
  ThreadCluster(ThreadClusterConfig config, const LinkFactory& links);
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Installs the actor for process p. Call for all p before start().
  void set_actor(ProcessId p, std::unique_ptr<Actor> actor);

  template <typename T, typename... Args>
  T& emplace_actor(ProcessId p, Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    set_actor(p, std::move(owned));
    return ref;
  }

  /// Launches all process threads and calls on_start on each (on its own
  /// thread).
  void start();

  /// Stops all loops and joins the threads. Idempotent.
  void stop();

  /// Crash-stop process p: its loop stops consuming events permanently.
  void crash(ProcessId p);
  [[nodiscard]] bool alive(ProcessId p) const;

  /// Runs fn on p's event-loop thread (serialized with its callbacks).
  /// This is how external code calls into actors (e.g. a replica's
  /// submit()).
  void post(ProcessId p, std::function<void()> fn);

  /// Microseconds since cluster construction.
  [[nodiscard]] TimePoint now() const;

  [[nodiscard]] int n() const { return config_.n; }

  /// Total messages handed to the router (including dropped ones).
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_count_; }

 private:
  class ProcessLoop;

  void route(ProcessId src, ProcessId dst, MessageType type,
             BytesView payload);

  ThreadClusterConfig config_;
  std::chrono::steady_clock::time_point epoch_;

  struct LinkSlot {
    std::unique_ptr<LinkModel> model;
    Rng rng{0};
  };
  std::mutex router_mu_;
  std::vector<LinkSlot> links_;
  std::atomic<std::uint64_t> sent_count_{0};

  std::vector<std::unique_ptr<ProcessLoop>> loops_;
  bool started_ = false;
};

}  // namespace lls
