// Client session numbering: the client half of the end-to-end exactly-once
// contract.
//
// A session owns a monotonically increasing sequence number per client
// process; the (origin = client id, seq) pair rides the replica layer's
// existing dedup, so however many times a request is retried — across
// timeouts, redirects and leader failover — it is applied to the state
// machine at most once, and the submission protocol makes it at least once.
// The session also tracks the contiguous-completion watermark (`ack_upto`)
// that each command carries (Command::ack_upto), so every replica prunes
// its dedup state and reply cache at the command's log position.
#pragma once

#include <cstdint>
#include <set>

namespace lls {

class ClientSession {
 public:
  /// Allocates the next sequence number (1-based; 0 is "no sequence").
  std::uint64_t next_seq() { return next_seq_++; }

  /// Marks `seq` completed (result delivered to the application). Advances
  /// the ack watermark over any contiguous completed prefix.
  void complete(std::uint64_t seq) {
    if (seq <= ack_upto_) return;  // stale duplicate reply
    completed_.insert(seq);
    while (completed_.count(ack_upto_ + 1) != 0) {
      completed_.erase(++ack_upto_);
    }
  }

  [[nodiscard]] bool is_complete(std::uint64_t seq) const {
    return seq <= ack_upto_ || completed_.count(seq) != 0;
  }

  /// Every sequence number <= ack_upto() has completed; safe for replicas to
  /// forget. Holes above it keep their completed successors in `completed_`.
  [[nodiscard]] std::uint64_t ack_upto() const { return ack_upto_; }

  /// Sequence numbers handed out so far.
  [[nodiscard]] std::uint64_t issued() const { return next_seq_ - 1; }

  /// Completed count, including the watermarked prefix.
  [[nodiscard]] std::uint64_t completed() const {
    return ack_upto_ + completed_.size();
  }

 private:
  std::uint64_t next_seq_ = 1;
  std::uint64_t ack_upto_ = 0;
  std::set<std::uint64_t> completed_;  // completed seqs above the watermark
};

}  // namespace lls
