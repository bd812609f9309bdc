// Message relaying: running the algorithms under weaker link assumptions.
//
// The paper's algorithms assume the ♦-source's *direct* links are eventually
// timely. Relaying weakens that to eventually timely *paths*: the first time
// a process receives a message, it re-sends it to every other process
// (except the origin and the hop it came from) before delivering it, so a
// message reaches its destination through any timely route. The cost is that
// the system is no longer communication-efficient in raw message count —
// only in the number of processes that originate *new* messages — exactly
// the trade-off the literature notes for this relaxation.
//
// RelayActor wraps any inner Actor transparently: inner sends are tunneled
// in RELAY envelopes carrying (origin, seq, final dst); duplicates are
// detected with a per-origin seen-set. No stable storage is needed in the
// crash-stop model (a process never comes back with a reused sequence).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/actor.h"
#include "net/wire.h"

namespace lls {

namespace msg_type {
/// Envelope tag for relayed traffic (class 0x04 in NetStats accounting).
inline constexpr MessageType kRelayEnvelope = 0x0401;
}  // namespace msg_type

class RelayActor final : public Actor {
 public:
  /// RELAY(origin, seq, final dst, inner message). Decoding borrows the
  /// payload from the received frame.
  struct Envelope {
    ProcessId origin = kNoProcess;
    std::uint64_t seq = 0;
    ProcessId dst = kNoProcess;
    MessageType inner_type = 0;
    WireBlob payload;

    LLS_WIRE_FIELDS(Envelope, origin, seq, dst, inner_type, payload)
  };

  /// Wraps `inner` (not owned; must outlive the relay).
  explicit RelayActor(Actor& inner) : inner_(inner) {}

  /// Wraps and owns `inner` (topology profiles build whole relayed stacks
  /// through the simulator's actor factory, which transfers ownership).
  explicit RelayActor(std::unique_ptr<Actor> owned)
      : owned_(std::move(owned)), inner_(*owned_) {}

  /// The wrapped actor (campaign checks downcast through this).
  [[nodiscard]] Actor& inner() { return inner_; }
  [[nodiscard]] const Actor& inner() const { return inner_; }

  void on_start(Runtime& rt) override {
    self_ = rt.id();
    wrapper_ = std::make_unique<RelayRuntime>(*this, rt);
    inner_.on_start(*wrapper_);
  }

  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;

  void on_timer(Runtime&, TimerId timer) override {
    inner_.on_timer(*wrapper_, timer);
  }

  /// Messages this process originated (the "new messages" measure under
  /// which relayed algorithms remain communication-efficient).
  [[nodiscard]] std::uint64_t originated() const { return originated_; }

 private:
  /// Runtime wrapper handed to the inner actor: sends become envelope
  /// broadcasts; everything else passes through.
  class RelayRuntime final : public Runtime {
   public:
    RelayRuntime(RelayActor& relay, Runtime& base)
        : relay_(relay), base_(base) {}

    [[nodiscard]] ProcessId id() const override { return base_.id(); }
    [[nodiscard]] int n() const override { return base_.n(); }
    [[nodiscard]] TimePoint now() const override { return base_.now(); }

    void send(ProcessId dst, MessageType type, BytesView payload) override {
      relay_.originate(base_, dst, type, payload);
    }

    TimerId set_timer(Duration delay) override {
      return base_.set_timer(delay);
    }
    void cancel_timer(TimerId timer) override { base_.cancel_timer(timer); }
    Rng& rng() override { return base_.rng(); }
    [[nodiscard]] StableStorage* storage() override { return base_.storage(); }
    [[nodiscard]] obs::Plane& obs() override { return base_.obs(); }
    [[nodiscard]] BufferPool& pool() override { return base_.pool(); }

   private:
    RelayActor& relay_;
    Runtime& base_;
  };

  void originate(Runtime& rt, ProcessId dst, MessageType type,
                 BytesView payload);
  void flood(Runtime& rt, const Envelope& envelope, ProcessId skip_hop);

  std::unique_ptr<Actor> owned_;  // before inner_: may back the reference
  Actor& inner_;
  ProcessId self_ = kNoProcess;
  std::unique_ptr<RelayRuntime> wrapper_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t originated_ = 0;
  std::unordered_map<ProcessId, std::unordered_set<std::uint64_t>> seen_;
};

}  // namespace lls
