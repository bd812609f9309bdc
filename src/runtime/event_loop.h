// The event-loop core shared by both real-time runtimes (DESIGN.md §16).
//
// ThreadCluster's process loops and UdpNode each host one Actor on one
// thread. This class holds what they share: the timer heap and its cancel
// set, the cross-thread queue of posted calls, timed message deliveries,
// and the borrow scope around each delivery. A host with nothing else to
// wait on sleeps in wait(); UdpNode waits in poll(2) on its socket instead.
//
// run_due() is a due-at-entry pass: it dispatches, in (deadline,
// submission) order, only what was due when it began. What is armed or
// posted during the pass — a zero-delay timer re-armed from on_timer, a
// call that re-posts itself — waits for the next pass, so no timer, posted
// call or timed delivery can starve the others, and every pass returns to
// the host. What the host does between passes (UdpNode's socket drain) is
// the host's to bound.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/actor.h"

namespace lls {

class EventLoop {
 public:
  /// `host` is the Runtime the actor sees; its clock stamps every entry.
  explicit EventLoop(Runtime& host) : host_(host) {}

  // Any thread.
  void post(std::function<void()> fn);
  void deliver_at(TimePoint at, ProcessId src, MessageType type,
                  Bytes payload);
  TimerId set_timer(Duration delay);
  void cancel_timer(TimerId timer);
  /// Drops what is queued and refuses later post() and deliver_at(); a
  /// pass in progress stops after its current callback, and wait() returns.
  void close();
  [[nodiscard]] bool closed() const;

  // Loop thread.
  void run_due(Actor& actor);
  /// Blocks until the earliest deadline queued, until another thread
  /// queues work, or until close(). Returns false once closed.
  bool wait();
  /// Earliest deadline queued (a posted call is due when posted), or
  /// kTimeNever.
  [[nodiscard]] TimePoint next_deadline() const;
  /// Runs on_message under a borrow scope: blobs decoded from `payload`
  /// must not outlive the call.
  void deliver(Actor& actor, ProcessId src, MessageType type,
               BytesView payload);

 private:
  /// Deadline plus submission number, from one counter shared by all
  /// three queues. A timer's id is its submission number.
  struct Stamp {
    TimePoint at;
    std::uint64_t seq;
    /// Heap order for std::greater<>: the earliest stamp on top.
    bool operator>(const Stamp& o) const {
      return at > o.at || (at == o.at && seq > o.seq);
    }
  };
  struct Delivery : Stamp {
    ProcessId src;
    MessageType type;
    Bytes payload;
  };
  struct Call : Stamp {
    std::function<void()> fn;
  };

  Runtime& host_;

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable cv_;  // signalled when work is queued or on close
  bool closed_ = false;
  std::uint64_t next_seq_ = 1;  // 0 is kInvalidTimer
  std::vector<Stamp> timers_;   // heap
  std::unordered_set<TimerId> cancelled_;
  std::vector<Delivery> deliveries_;  // heap
  std::deque<Call> calls_;            // FIFO

  [[nodiscard]] TimePoint next_deadline_locked() const;
};

}  // namespace lls
