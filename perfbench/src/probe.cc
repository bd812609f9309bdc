#include "probe.h"

#include <algorithm>

#include "consensus/consensus.h"
#include "net/message.h"
#include "report.h"
#include "shard/shard_map.h"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOmega: return "omega";
    case Layer::kConsensus: return "consensus";
    case Layer::kClient: return "client";
    case Layer::kTimer: return "timer";
    case Layer::kOther: break;
  }
  return "other";
}

Layer layer_of(MessageType type) {
  if (type >= 0x0100 && type <= 0x01ff) return Layer::kOmega;
  if (type >= 0x0200 && type <= 0x02ff) return Layer::kConsensus;
  if (type >= 0x0310 && type <= 0x031f) return Layer::kClient;
  return Layer::kOther;
}

std::uint64_t ProbeStats::sent_in_layer(Layer layer) const {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < kTypes; ++t) {
    if (layer_of(static_cast<MessageType>(t)) == layer) total += sent_msgs[t];
  }
  return total;
}

std::uint64_t ProbeStats::bytes_total() const {
  std::uint64_t total = 0;
  for (std::uint64_t v : sent_bytes) total += v;
  return total;
}

double ProbeTotals::all_msgs() const {
  double total = 0;
  for (std::uint64_t m : msgs) total += static_cast<double>(m);
  return total;
}

ProbeTotals ProbeTotals::operator-(const ProbeTotals& before) const {
  ProbeTotals d;
  for (std::size_t l = 0; l < kLayers; ++l) d.msgs[l] = msgs[l] - before.msgs[l];
  d.bytes = bytes - before.bytes;
  d.decide = decide - before.decide;
  d.client_requests = client_requests - before.client_requests;
  d.client_batches = client_batches - before.client_batches;
  return d;
}

ProbeTotals probe_totals(const std::vector<ProbeStats>& probes) {
  ProbeTotals t;
  for (const ProbeStats& p : probes) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      t.msgs[l] += p.sent_in_layer(static_cast<Layer>(l));
    }
    t.bytes += p.bytes_total();
    t.decide += p.consensus_msgs[lls::msg_type::kDecide & 0xff] +
                p.consensus_msgs[lls::msg_type::kDecideAck & 0xff];
    t.client_requests += p.sent_msgs[lls::msg_type::kClientRequest];
    t.client_batches += p.sent_msgs[lls::msg_type::kClientRequestBatch];
  }
  return t;
}

lls::obs::Histogram merged_timer_lateness(const std::vector<ProbeStats>& probes) {
  lls::obs::Histogram late;
  for (const ProbeStats& p : probes) late.merge(p.timer_late_us);
  return late;
}

std::vector<PayloadSample> merged_samples(const std::vector<ProbeStats>& probes,
                                          Layer layer) {
  std::vector<PayloadSample> out;
  for (const ProbeStats& p : probes) {
    const auto& from =
        layer == Layer::kConsensus ? p.consensus_samples : p.client_samples;
    out.insert(out.end(), from.begin(), from.end());
  }
  return out;
}

void ProbeRuntime::send(ProcessId dst, MessageType type, BytesView payload) {
  const std::size_t slot = std::min<std::size_t>(type, ProbeStats::kTypes - 1);
  const std::uint64_t seen = stats_.sent_msgs[slot]++;
  stats_.sent_bytes[slot] += payload.size();
  const Layer layer = layer_of(type);
  if (layer == Layer::kConsensus) {
    MessageType inner = type;
    if (type == lls::msg_type::kGroupEnvelope) {
      try {
        inner = lls::GroupEnvelopeMsg::decode(payload).inner_type;
      } catch (const lls::SerializationError&) {
        inner = type;
      }
    }
    ++stats_.consensus_msgs[inner & 0xff];
    maybe_sample(stats_.consensus_samples, seen, type, payload);
  } else if (layer == Layer::kClient) {
    maybe_sample(stats_.client_samples, seen, type, payload);
  }
  base_->send(dst, type, payload);
}

void ProbeRuntime::maybe_sample(std::vector<PayloadSample>& into,
                                std::uint64_t seen, MessageType type,
                                BytesView payload) {
  if (seen % limits_.sample_every != 0 || into.size() >= limits_.samples) {
    return;
  }
  into.push_back({type, lls::Bytes(payload.begin(), payload.end())});
}

TimerId ProbeRuntime::set_timer(lls::Duration delay) {
  const TimerId id = base_->set_timer(delay);
  deadlines_[id] = base_->now() + std::max<lls::Duration>(delay, 0);
  return id;
}

void ProbeRuntime::cancel_timer(TimerId timer) {
  deadlines_.erase(timer);
  base_->cancel_timer(timer);
}

void ProbeRuntime::on_fire(TimerId timer) {
  auto it = deadlines_.find(timer);
  if (it == deadlines_.end()) return;
  stats_.timer_late_us.record(
      static_cast<double>(std::max<lls::TimePoint>(now() - it->second, 0)));
  deadlines_.erase(it);
}

void ProbeActor::record(Layer layer, MessageType type, std::uint64_t start_ns,
                        std::uint64_t end_ns) {
  const auto l = static_cast<std::size_t>(layer);
  stats_.handler_ns[l] += end_ns - start_ns;
  ++stats_.handler_calls[l];
  if (calls_++ % limits_.span_every == 0 &&
      stats_.spans.size() < limits_.spans) {
    stats_.spans.push_back(
        {start_ns - epoch_ns_,
         static_cast<std::uint32_t>(std::min<std::uint64_t>(
             end_ns - start_ns, UINT32_MAX)),
         self_, type, layer});
  }
}

void ProbeActor::on_start(Runtime& rt) {
  self_ = rt.id();
  stats_.pool = &rt.pool();
  rt_.bind(rt);
  const std::uint64_t t0 = wall_ns();
  inner_->on_start(rt_);
  record(Layer::kOther, 0, t0, wall_ns());
}

void ProbeActor::on_message(Runtime&, ProcessId src, MessageType type,
                            BytesView payload) {
  const std::uint64_t t0 = wall_ns();
  inner_->on_message(rt_, src, type, payload);
  record(layer_of(type), type, t0, wall_ns());
}

void ProbeActor::on_timer(Runtime&, TimerId timer) {
  rt_.on_fire(timer);
  const std::uint64_t t0 = wall_ns();
  inner_->on_timer(rt_, timer);
  record(Layer::kTimer, 0, t0, wall_ns());
}

void write_handler_spans(std::FILE* out, const std::vector<ProbeStats>& stats) {
  for (const ProbeStats& s : stats) {
    for (const HandlerSpan& span : s.spans) {
      std::fprintf(out,
                   "{\"kind\":\"handler\",\"layer\":\"%s\",\"process\":%u,"
                   "\"type\":%u,\"start_ns\":%llu,\"dur_ns\":%u}\n",
                   layer_name(span.layer), span.process,
                   static_cast<unsigned>(span.type),
                   static_cast<unsigned long long>(span.start_ns),
                   span.dur_ns);
    }
  }
}

}  // namespace perfbench
