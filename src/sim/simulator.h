// Deterministic discrete-event simulator hosting Actor protocols.
//
// The simulator advances a virtual clock through a totally-ordered event
// queue (ties broken by insertion sequence), so an execution is a pure
// function of (seed, configuration, fault plan). Crash-stop semantics: a
// crashed process receives no further callbacks and its pending timers and
// in-flight deliveries are discarded at fire time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/actor.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/network.h"
#include "obs/plane.h"

namespace lls {

struct SimConfig {
  int n = 0;
  std::uint64_t seed = 1;
  /// Bucket width for NetStats time series.
  Duration stats_bucket = 10 * kMillisecond;
};

class Simulator {
 public:
  Simulator(SimConfig config, const LinkFactory& links);

  /// Installs the actor for process p. Must be called for all p before
  /// start().
  void set_actor(ProcessId p, std::unique_ptr<Actor> actor);

  template <typename T, typename... Args>
  T& emplace_actor(ProcessId p, Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    set_actor(p, std::move(owned));
    return ref;
  }

  /// Crash-recovery extension: installs a factory used to (re)build p's
  /// actor on every recovery (volatile state is lost; storage() survives).
  /// Also builds the initial actor.
  void set_actor_factory(ProcessId p,
                         std::function<std::unique_ptr<Actor>()> factory);

  /// Schedules a recovery of p at time t (no-op if p is alive then).
  /// Requires an actor factory for p.
  void recover_at(ProcessId p, TimePoint t);

  /// The current actor instance for p, downcast. Pointers obtained earlier
  /// are invalidated by recovery — always re-fetch.
  template <typename T>
  T& actor_as(ProcessId p) {
    return dynamic_cast<T&>(*actors_[p]);
  }

  /// Calls on_start for every alive process (in id order) at the current
  /// virtual time. Idempotent per process.
  void start();

  /// Runs events with time <= t, then sets now to t.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Executes the next event; returns false when the queue is empty.
  bool step();

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] int n() const { return config_.n; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  void crash_at(ProcessId p, TimePoint t);
  void crash_now(ProcessId p);
  [[nodiscard]] bool alive(ProcessId p) const { return alive_[p]; }
  [[nodiscard]] int alive_count() const;

  /// True once set_actor_factory(p) was called (crash-recovery capable).
  [[nodiscard]] bool has_actor_factory(ProcessId p) const {
    return static_cast<bool>(factories_[p]);
  }

  /// GC-pause-style freeze: deliveries to p and p's timer fires occurring
  /// before now + d are deferred (in order) to now + d. The process cannot
  /// react — and therefore cannot send — while stalled; its clock appears
  /// to jump. Overlapping stalls extend to the latest deadline.
  void stall(ProcessId p, Duration d);
  [[nodiscard]] bool stalled(ProcessId p) const {
    return now_ < stalled_until_[p];
  }

  /// Schedules an arbitrary callback at virtual time t (>= now).
  void schedule(TimePoint t, std::function<void()> fn);

  /// Schedules fn at `first` and then every `period` until fn returns false.
  void schedule_every(TimePoint first, Duration period,
                      std::function<bool()> fn);

  Network& network() { return network_; }
  [[nodiscard]] const Network& network() const { return network_; }

  Actor& actor(ProcessId p) { return *actors_[p]; }
  /// p's stable storage (crash-recovery mode), for inspecting what a
  /// durable actor persisted.
  InMemoryStableStorage& storage(ProcessId p) { return storage_[p]; }

  /// Miscellaneous deterministic stream (workload generators etc.).
  Rng& rng() { return misc_rng_; }

  /// The simulation's shared observability plane: one registry + event bus
  /// for all simulated processes (events carry the emitting ProcessId).
  /// Every SimRuntime's obs() resolves here, so a subscriber sees the
  /// whole cluster. NetStats registers on this plane's registry.
  obs::Plane& plane() { return plane_; }
  [[nodiscard]] const obs::Plane& plane() const { return plane_; }

 private:
  friend class SimRuntime;

  enum class EventKind : std::uint8_t {
    kDeliver,
    kTimer,
    kCall,
    kCrash,
    kRecover
  };

  struct Event {
    TimePoint time = 0;
    std::uint64_t seq = 0;
    EventKind kind = EventKind::kCall;
    Message msg;                // kDeliver
    ProcessId pid = kNoProcess; // kTimer / kCrash / kRecover
    TimerId timer = kInvalidTimer;
    std::uint32_t epoch = 0;    // kTimer: incarnation the timer belongs to
    std::function<void()> fn;   // kCall
  };

  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push(Event e);
  void dispatch(Event& e);

  // Runtime entry points (called by SimRuntime).
  void do_send(ProcessId src, ProcessId dst, MessageType type,
               BytesView payload);
  TimerId do_set_timer(ProcessId p, Duration delay);
  void do_cancel_timer(TimerId timer);

  SimConfig config_;
  Rng master_rng_;
  Rng misc_rng_;
  /// Declared before network_: NetStats registers into this registry.
  obs::Plane plane_;
  Network network_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<std::function<std::unique_ptr<Actor>()>> factories_;
  std::vector<std::unique_ptr<class SimRuntime>> runtimes_;
  std::vector<InMemoryStableStorage> storage_;
  std::vector<bool> alive_;
  std::vector<bool> started_;
  std::vector<TimePoint> stalled_until_;
  /// Incarnation counter per process; timers armed in an older incarnation
  /// are discarded at fire time (volatile state did not survive).
  std::vector<std::uint32_t> epoch_;
  /// Event queue as an explicit binary heap (std::push_heap/pop_heap over
  /// a vector) rather than std::priority_queue: top() of a priority_queue
  /// is const, forcing step() to *copy* each event out — including its
  /// message payload. The explicit heap lets step() move the event.
  std::vector<Event> queue_;
  /// Recycles message payload buffers across do_send -> delivery; shared by
  /// every simulated process (one thread drives them all).
  BufferPool pool_{BufferPool::Config{256, 256 * 1024}};
  std::unordered_set<TimerId> cancelled_timers_;
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_timer_ = 1;
  std::uint64_t next_msg_seq_ = 1;
  std::uint64_t executed_ = 0;

  /// Publishes a transport/lifecycle event on the shared bus at now_.
  void publish(obs::EventType type, ProcessId process,
               ProcessId peer = kNoProcess, MessageType mtype = 0,
               std::uint64_t a = 0, BytesView payload = {}) {
    obs::Event e;
    e.type = type;
    e.t = now_;
    e.process = process;
    e.peer = peer;
    e.mtype = mtype;
    e.a = a;
    e.payload = payload;
    plane_.bus().publish(e);
  }
};

/// Runtime implementation bound to one simulated process.
class SimRuntime final : public Runtime {
 public:
  SimRuntime(Simulator& sim, ProcessId id, Rng rng, StableStorage* storage)
      : sim_(sim), id_(id), rng_(rng), storage_(storage) {}

  [[nodiscard]] ProcessId id() const override { return id_; }
  [[nodiscard]] int n() const override { return sim_.n(); }
  [[nodiscard]] TimePoint now() const override { return sim_.now(); }

  void send(ProcessId dst, MessageType type, BytesView payload) override {
    sim_.do_send(id_, dst, type, payload);
  }

  TimerId set_timer(Duration delay) override {
    return sim_.do_set_timer(id_, delay);
  }

  void cancel_timer(TimerId timer) override { sim_.do_cancel_timer(timer); }

  Rng& rng() override { return rng_; }

  [[nodiscard]] StableStorage* storage() override { return storage_; }

  [[nodiscard]] obs::Plane& obs() override { return sim_.plane_; }

  [[nodiscard]] BufferPool& pool() override { return sim_.pool_; }

 private:
  Simulator& sim_;
  ProcessId id_;
  Rng rng_;
  StableStorage* storage_;
};

}  // namespace lls
