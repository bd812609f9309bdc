#include "runtime/event_loop.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "common/blob.h"

namespace lls {

void EventLoop::post(std::function<void()> fn) {
  const TimePoint at = host_.now();
  {
    std::scoped_lock lock(mu_);
    if (closed_) return;
    calls_.push_back(Call{{at, next_seq_++}, std::move(fn)});
  }
  cv_.notify_one();
}

void EventLoop::deliver_at(TimePoint at, ProcessId src, MessageType type,
                           Bytes payload) {
  {
    std::scoped_lock lock(mu_);
    if (closed_) return;
    deliveries_.push_back(
        Delivery{{at, next_seq_++}, src, type, std::move(payload)});
    std::push_heap(deliveries_.begin(), deliveries_.end(), std::greater<>{});
  }
  cv_.notify_one();
}

TimerId EventLoop::set_timer(Duration delay) {
  const TimePoint at = host_.now() + std::max<Duration>(delay, 0);
  std::scoped_lock lock(mu_);
  const TimerId id = next_seq_++;
  timers_.push_back(Stamp{at, id});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
  return id;
}

void EventLoop::cancel_timer(TimerId timer) {
  std::scoped_lock lock(mu_);
  if (timer != kInvalidTimer) cancelled_.insert(timer);
}

void EventLoop::close() {
  // Declared before the lock, so queued calls and payloads are destroyed
  // unlocked: a captured object's destructor may post().
  std::deque<Call> calls;
  std::vector<Delivery> deliveries;
  {
    std::scoped_lock lock(mu_);
    closed_ = true;
    calls.swap(calls_);
    deliveries.swap(deliveries_);
    timers_.clear();
    cancelled_.clear();
  }
  cv_.notify_all();
}

bool EventLoop::closed() const {
  std::scoped_lock lock(mu_);
  return closed_;
}

void EventLoop::run_due(Actor& actor) {
  std::unique_lock lock(mu_);
  const Stamp entry{host_.now(), next_seq_};
  const auto head = [&](const auto& q) -> const Stamp* {
    if (q.empty() || q.front().at > entry.at || q.front().seq >= entry.seq) {
      return nullptr;  // empty, or not due when the pass began
    }
    return &q.front();
  };
  while (!closed_) {
    const Stamp* call = head(calls_);
    const Stamp* timer = head(timers_);
    const Stamp* delivery = head(deliveries_);
    const Stamp* first = call;
    for (const Stamp* s : {timer, delivery}) {
      if (s != nullptr && (first == nullptr || *first > *s)) first = s;
    }
    if (first == nullptr) return;
    // Callbacks run unlocked; their locals die before the lock is retaken.
    if (first == call) {
      std::function<void()> fn = std::move(calls_.front().fn);
      calls_.pop_front();
      lock.unlock();
      fn();
    } else if (first == timer) {
      std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
      const TimerId id = timers_.back().seq;
      timers_.pop_back();
      if (cancelled_.erase(id) > 0) continue;
      lock.unlock();
      actor.on_timer(host_, id);
    } else {
      std::pop_heap(deliveries_.begin(), deliveries_.end(), std::greater<>{});
      Delivery d = std::move(deliveries_.back());
      deliveries_.pop_back();
      lock.unlock();
      deliver(actor, d.src, d.type, d.payload);
    }
    lock.lock();
  }
}

bool EventLoop::wait() {
  std::unique_lock lock(mu_);
  // Every post() and deliver_at() takes a submission number, so a changed
  // counter means another thread queued work. Work queued before the lock
  // was taken is already in next_deadline_locked().
  const std::uint64_t seen = next_seq_;
  const auto woken = [&]() { return closed_ || next_seq_ != seen; };
  const TimePoint next = next_deadline_locked();
  if (next == kTimeNever) {
    cv_.wait(lock, woken);
  } else {
    cv_.wait_for(lock, std::chrono::microseconds(next - host_.now()), woken);
  }
  return !closed_;
}

TimePoint EventLoop::next_deadline() const {
  std::scoped_lock lock(mu_);
  return next_deadline_locked();
}

TimePoint EventLoop::next_deadline_locked() const {
  TimePoint next = calls_.empty() ? kTimeNever : calls_.front().at;
  if (!timers_.empty()) next = std::min(next, timers_.front().at);
  if (!deliveries_.empty()) next = std::min(next, deliveries_.front().at);
  return next;
}

void EventLoop::deliver(Actor& actor, ProcessId src, MessageType type,
                        BytesView payload) {
  [[maybe_unused]] borrowcheck::Scope borrow_scope;
  actor.on_message(host_, src, type, payload);
}

}  // namespace lls
