#include "codec_probe.h"

#include <cstddef>

#include "consensus/consensus.h"
#include "consensus/paxos.h"
#include "net/message.h"
#include "report.h"
#include "rsm/command.h"
#include "shard/shard_map.h"

namespace perfbench {

namespace {

namespace mt = lls::msg_type;

/// Decodes one payload; returns a size the optimizer cannot discard.
std::size_t decode_one(MessageType type, BytesView payload) {
  switch (type) {
    case mt::kGroupEnvelope: {
      auto env = lls::GroupEnvelopeMsg::decode(payload);
      return 1 + decode_one(env.inner_type, env.payload.view());
    }
    case mt::kPrepare: return lls::PrepareMsg::decode(payload).from;
    case mt::kPromise: return lls::PromiseMsg::decode(payload).entries.size();
    case mt::kAccept: return lls::AcceptMsg::decode(payload).value.size();
    case mt::kAccepted: return lls::AcceptedMsg::decode(payload).instance;
    case mt::kNack: return lls::NackMsg::decode(payload).promised_round;
    case mt::kDecide: return lls::DecideMsg::decode(payload).value.size();
    case mt::kDecideAck: return lls::DecideAckMsg::decode(payload).instance;
    case mt::kForward: return lls::ForwardMsg::decode(payload).value.size();
    case mt::kClientRequest: {
      auto req = lls::ClientRequestMsg::decode(payload);
      return lls::Command::decode(req.command.view()).key.size();
    }
    case mt::kClientRequestBatch: {
      auto batch = lls::ClientRequestBatchMsg::decode(payload);
      std::size_t keys = 0;
      for (const auto& item : batch.items) {
        keys += lls::Command::decode(item.command.view()).key.size();
      }
      return keys;
    }
    case mt::kClientReply: return lls::ClientReplyMsg::decode(payload).value.size();
    case mt::kClientRedirect: return lls::ClientRedirectMsg::decode(payload).hint;
    case mt::kClientBusy: return lls::ClientBusyMsg::decode(payload).queue;
    default: return 0;
  }
}

}  // namespace

double decode_ns(const std::vector<PayloadSample>& samples) {
  if (samples.empty()) return 0;
  constexpr int kPasses = 7;
  constexpr int kRoundsPerPass = 20;
  std::vector<double> per_decode;
  volatile std::size_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::uint64_t t0 = wall_ns();
    std::size_t acc = 0;
    for (int r = 0; r < kRoundsPerPass; ++r) {
      for (const PayloadSample& s : samples) {
        acc += decode_one(s.type, BytesView(s.payload.data(), s.payload.size()));
      }
    }
    const std::uint64_t t1 = wall_ns();
    sink = sink + acc;
    per_decode.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(kRoundsPerPass * samples.size()));
  }
  return median(per_decode);
}

}  // namespace perfbench
