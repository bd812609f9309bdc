// Outside-in layer probes: forwarding decorators around a hosted Actor and
// the Runtime handed to it.
//
// ProbeActor wraps whatever a process hosts (a replica container, a client)
// and hands the inner actor a ProbeRuntime instead of the real one. Between
// them they see every message in, every message out and every timer,
// without touching library code:
//   * handler time and call count per layer of the delivered message type
//     (on_message) and for timers (on_timer);
//   * messages and bytes sent per MessageType, with group envelopes
//     (0x0290) also counted under their inner consensus type;
//   * timer lateness: set_timer's deadline against when on_timer fires;
//   * handler spans, kept in memory and written out when the run ends;
//   * a sample of the payloads sent, replayed later through the public
//     decoders (codec_probe.h).
// Per common/actor.h, ProbeRuntime forwards obs() and pool() to the base
// runtime so publishers, subscribers and frame buffers meet where they
// would without the probe. All state is touched on the hosting loop only.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/actor.h"
#include "obs/histogram.h"

namespace perfbench {

using lls::Actor;
using lls::BytesView;
using lls::MessageType;
using lls::ProcessId;
using lls::Runtime;
using lls::TimerId;

/// Layers a delivered message or a timer is attributed to, by type range:
/// Omega 0x01xx, consensus 0x02xx (group envelope 0x0290 included), client
/// protocol 0x031x.
enum class Layer : std::uint8_t { kOmega, kConsensus, kClient, kTimer, kOther };
inline constexpr std::size_t kLayers = 5;
const char* layer_name(Layer layer);
Layer layer_of(MessageType type);

/// One timed callback, relative to the run's trace epoch.
struct HandlerSpan {
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  ProcessId process = 0;
  MessageType type = 0;  ///< delivered type; 0 for timers
  Layer layer = Layer::kOther;
};

/// A payload captured on the send path, for the codec replay.
struct PayloadSample {
  MessageType type = 0;
  lls::Bytes payload;
};

struct ProbeStats {
  static constexpr std::size_t kTypes = 0x500;  ///< types above clamp here
  std::array<std::uint64_t, kLayers> handler_ns{};
  std::array<std::uint64_t, kLayers> handler_calls{};
  std::array<std::uint64_t, kTypes> sent_msgs{};
  std::array<std::uint64_t, kTypes> sent_bytes{};
  /// Consensus messages by inner type, envelopes unwrapped (low byte).
  std::array<std::uint64_t, 0x100> consensus_msgs{};
  lls::obs::Histogram timer_late_us;
  std::vector<HandlerSpan> spans;
  std::vector<PayloadSample> consensus_samples;
  std::vector<PayloadSample> client_samples;
  /// The base runtime's frame pool, seen at on_start (for its hit ratio);
  /// valid only while that runtime lives.
  lls::BufferPool* pool = nullptr;

  [[nodiscard]] std::uint64_t sent_in_layer(Layer layer) const;
  [[nodiscard]] std::uint64_t bytes_total() const;
};

/// What the probes of a whole cluster counted, summed over processes.
struct ProbeTotals {
  std::array<std::uint64_t, kLayers> msgs{};
  std::uint64_t bytes = 0;
  std::uint64_t decide = 0;           ///< DECIDE + DECIDE_ACK
  std::uint64_t client_requests = 0;  ///< kClientRequest messages
  std::uint64_t client_batches = 0;   ///< kClientRequestBatch messages

  [[nodiscard]] double in(Layer layer) const {
    return static_cast<double>(msgs[static_cast<std::size_t>(layer)]);
  }
  [[nodiscard]] double all_msgs() const;
  [[nodiscard]] ProbeTotals operator-(const ProbeTotals& before) const;
};
ProbeTotals probe_totals(const std::vector<ProbeStats>& probes);

/// Timer lateness of every process in one histogram.
lls::obs::Histogram merged_timer_lateness(const std::vector<ProbeStats>& probes);
/// The consensus (or client) payload samples of every process.
std::vector<PayloadSample> merged_samples(const std::vector<ProbeStats>& probes,
                                          Layer layer);

/// Limits on what a probe keeps in memory.
struct ProbeLimits {
  std::size_t spans = 4000;       ///< handler spans kept per process
  std::size_t span_every = 64;    ///< keep one callback span in this many
  std::size_t samples = 2048;     ///< payloads kept per layer per process
  std::size_t sample_every = 16;  ///< keep one payload in this many
};

class ProbeRuntime final : public Runtime {
 public:
  ProbeRuntime(ProbeStats& stats, ProbeLimits limits)
      : stats_(stats), limits_(limits) {}

  void bind(Runtime& base) { base_ = &base; }

  [[nodiscard]] ProcessId id() const override { return base_->id(); }
  [[nodiscard]] int n() const override { return base_->n(); }
  [[nodiscard]] lls::TimePoint now() const override { return base_->now(); }
  void send(ProcessId dst, MessageType type, BytesView payload) override;
  TimerId set_timer(lls::Duration delay) override;
  void cancel_timer(TimerId timer) override;
  lls::Rng& rng() override { return base_->rng(); }
  [[nodiscard]] lls::StableStorage* storage() override {
    return base_->storage();
  }
  [[nodiscard]] lls::obs::Plane& obs() override { return base_->obs(); }
  [[nodiscard]] lls::BufferPool& pool() override { return base_->pool(); }

  /// Records lateness for a firing timer (and forgets its deadline).
  void on_fire(TimerId timer);

 private:
  void maybe_sample(std::vector<PayloadSample>& into, std::uint64_t seen,
                    MessageType type, BytesView payload);

  ProbeStats& stats_;
  ProbeLimits limits_;
  Runtime* base_ = nullptr;
  std::unordered_map<TimerId, lls::TimePoint> deadlines_;
};

class ProbeActor final : public Actor {
 public:
  ProbeActor(std::unique_ptr<Actor> inner, ProbeStats& stats,
             std::uint64_t epoch_ns, ProbeLimits limits = {})
      : inner_(std::move(inner)),
        stats_(stats),
        rt_(stats, limits),
        limits_(limits),
        epoch_ns_(epoch_ns) {}

  void on_start(Runtime& rt) override;
  void on_message(Runtime& rt, ProcessId src, MessageType type,
                  BytesView payload) override;
  void on_timer(Runtime& rt, TimerId timer) override;

 private:
  void record(Layer layer, MessageType type, std::uint64_t start_ns,
              std::uint64_t end_ns);

  std::unique_ptr<Actor> inner_;
  ProbeStats& stats_;
  ProbeRuntime rt_;
  ProbeLimits limits_;
  std::uint64_t epoch_ns_;
  std::uint64_t calls_ = 0;
  ProcessId self_ = 0;
};

/// Writes handler spans of every process as JSONL ("kind":"handler").
void write_handler_spans(std::FILE* out, const std::vector<ProbeStats>& stats);

}  // namespace perfbench
