// Golden byte-encoding pins for every wire message.
//
// The WIRE_FIELDS visitor (net/wire.h) generates each message's codec from
// one declared field list, so a careless reorder, a widened integer or an
// accidentally inserted field changes bytes on the wire — and silently
// breaks mixed-version clusters and recorded-artifact replay. These tests
// pin the exact encodings: a pin mismatch means the wire format changed and
// must be an explicit, intentional decision (update the pin in the same
// change that documents the format bump).
//
// Layout notes worth keeping in mind when reading the hex:
//   * all integers little-endian, fixed width (Round/Instance/seq/ts u64,
//     ProcessId/queue/counts u32, MessageType u16, KvOp u8, bool u8);
//   * Bytes and strings are u32 length + raw bytes;
//   * vectors are u32 count + inline elements;
//   * the lease fields ride at the END of their structs: ts on
//     Prepare/Accept, echo_ts on Promise/Accepted, read_only on Command —
//     so every pre-lease prefix of those messages is unchanged;
//   * AcceptedMsg ends with the follower's decided_upto watermark, after
//     echo_ts.
#include <gtest/gtest.h>

#include <string>

#include "common/buffer_pool.h"
#include "consensus/paxos.h"
#include "consensus/rotating_consensus.h"
#include "net/message.h"
#include "net/relay.h"
#include "net/wire.h"
#include "omega/ce_omega.h"
#include "omega/cr_omega.h"
#include "rsm/command.h"
#include "shard/shard_map.h"

namespace lls {
namespace {

Bytes from_hex(const std::string& hex) {
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::byte>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string to_hex(const Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::byte b : bytes) {
    const auto v = std::to_integer<unsigned>(b);
    out.push_back(digits[v >> 4]);
    out.push_back(digits[v & 0xF]);
  }
  return out;
}

/// Encode must hit the pin exactly, and decoding the pinned bytes must
/// yield a value that re-encodes to the same bytes (codec is a bijection on
/// its own output). The flat encode path is additionally cross-checked:
/// the Measurer must predict exactly the pinned size, and the pooled
/// arena-backed encoding must be bit-identical to the heap encoding — the
/// zero-copy data plane is not allowed to change a single wire byte.
template <typename Msg>
void expect_golden(const Msg& msg, const std::string& pin) {
  EXPECT_EQ(to_hex(msg.encode()), pin);
  EXPECT_EQ(wire::measure(msg) * 2, pin.size());
  BufferPool pool;
  EXPECT_EQ(to_hex(wire::encode_pooled(pool, msg).bytes()), pin);
  // Round-trip the pin: decoded blob fields borrow into `pinned`, which
  // stays alive until the re-encoding is compared.
  const Bytes pinned = from_hex(pin);
  EXPECT_EQ(to_hex(Msg::decode(pinned).encode()), pin);
}

TEST(WireGolden, ConsensusMessages) {
  expect_golden(PrepareMsg{7, 42, 123456789},
                "07000000000000002a0000000000000015cd5b0700000000");
  PromiseMsg pm;
  pm.round = 9;
  pm.entries.push_back({5, 3, true, Bytes{std::byte{0xAA}, std::byte{0xBB}}});
  pm.entries.push_back({6, kNoRound, false, Bytes{}});
  pm.echo_ts = 77;
  expect_golden(
      pm,
      "0900000000000000020000000500000000000000030000000000000001"
      "02000000aabb0600000000000000ffffffffffffffff00000000004d000000"
      "00000000");
  expect_golden(
      AcceptMsg{11, 4, 2, Bytes{std::byte{0x01}, std::byte{0x02},
                                std::byte{0x03}},
                500},
      "0b000000000000000400000000000000020000000000000003000000010203"
      "f401000000000000");
  expect_golden(AcceptedMsg{11, 4, 500, 3},
                "0b000000000000000400000000000000f401000000000000"
                "0300000000000000");
  expect_golden(NackMsg{3, 8}, "03000000000000000800000000000000");
  expect_golden(DecideMsg{13, Bytes{std::byte{0xFF}}},
                "0d0000000000000001000000ff");
  expect_golden(DecideAckMsg{13}, "0d00000000000000");
  expect_golden(ForwardMsg{Bytes{std::byte{0xDE}, std::byte{0xAD}}},
                "02000000dead");
}

TEST(WireGolden, CommandIncludingReadOnlyFlag) {
  Command cmd;
  cmd.origin = 2;
  cmd.seq = 99;
  cmd.op = KvOp::kCas;
  cmd.key = "k";
  cmd.value = "v";
  cmd.expected = "e";
  expect_golden(
      cmd, "02000000630000000000000005010000006b0100000076010000006500");
  Command rd;
  rd.origin = 1;
  rd.seq = 7;
  rd.op = KvOp::kGet;
  rd.key = "k";
  rd.read_only = true;
  expect_golden(
      rd, "01000000070000000000000002010000006b000000000000000001");
}

TEST(WireGolden, ClientProtocolMessages) {
  ClientRequestMsg req;
  req.seq = 5;
  req.ack_upto = 4;
  req.command = Bytes{std::byte{0x10}};
  expect_golden(req, "050000000000000004000000000000000100000010");
  ClientReplyMsg rep;
  rep.seq = 5;
  rep.ok = true;
  rep.found = false;
  rep.value = "x";
  expect_golden(rep, "050000000000000001000100000078");
  ClientRedirectMsg redir;
  redir.hint = 3;
  redir.shard = 1;
  expect_golden(redir, "030000000100");
  ClientRequestBatchMsg batch;
  batch.ack_upto = 2;
  batch.items.push_back({3, Bytes{std::byte{0x20}}});
  batch.items.push_back({4, Bytes{std::byte{0x21}, std::byte{0x22}}});
  expect_golden(batch,
                "0200000000000000020000000300000000000000010000002004000000"
                "00000000020000002122");
  ClientBusyMsg busy;
  busy.seq = 6;
  busy.queue = 17;
  expect_golden(busy, "060000000000000011000000");
}

/// Pinned at the hand-rolled FlatWriter codecs these messages had before
/// they moved onto LLS_WIRE_FIELDS: the move changed no byte.
TEST(WireGolden, OmegaMessages) {
  expect_golden(CeOmega::AliveMsg{5, 3},
                "0500000000000000"
                "0300000000000000");
  expect_golden(CeOmega::AccuseMsg{2, 7},
                "02000000"
                "0700000000000000");
  expect_golden(CrLeaderMsg{{1, 0, 4}},
                "03000000"
                "0100000000000000"
                "0000000000000000"
                "0400000000000000");
}

TEST(WireGolden, RotatingConsensusMessages) {
  expect_golden(
      RotatingConsensus::EstimateMsg{
          3, 2, 1, Bytes{std::byte{0xAA}, std::byte{0xBB}}},
      "0300000000000000"
      "0200000000000000"
      "0100000000000000"
      "02000000aabb");
  expect_golden(RotatingConsensus::EstimateMsg{3, 0, kNoRound, Bytes{}},
                "0300000000000000"
                "0000000000000000"
                "ffffffffffffffff"
                "00000000");
  expect_golden(
      RotatingConsensus::ProposalMsg{4, 5, Bytes{std::byte{0xCC}}},
      "0400000000000000"
      "0500000000000000"
      "01000000cc");
  expect_golden(RotatingConsensus::AckMsg{6, 7},
                "0600000000000000"
                "0700000000000000");
  expect_golden(
      RotatingConsensus::DecideMsg{8, Bytes{std::byte{0xDD}, std::byte{0xEE}}},
      "0800000000000000"
      "02000000ddee");
}

TEST(WireGolden, RelayEnvelope) {
  RelayActor::Envelope env;
  env.origin = 1;
  env.seq = 9;
  env.dst = 3;
  env.inner_type = 0x0101;
  env.payload = Bytes{std::byte{0xAB}};
  expect_golden(env,
                "01000000"
                "0900000000000000"
                "03000000"
                "0101"
                "01000000ab");
}

TEST(WireGolden, ShardEnvelope) {
  GroupEnvelopeMsg env;
  env.shard = 2;
  env.inner_type = 0x0210;
  env.payload = Bytes{std::byte{0x30}, std::byte{0x31}};
  expect_golden(env, "02001002020000003031");
}

/// The lease timestamp fields default to zero; a proposer that never fills
/// them (or a pre-lease peer's encoding with zero padding appended) decodes
/// as "no timestamp", so the lease machinery treats the support as already
/// expired rather than inventing one.
TEST(WireGolden, ZeroLeaseTimestampsDecodeAsNoSupport) {
  const AcceptedMsg acc = AcceptedMsg::decode(
      from_hex("0b000000000000000400000000000000"
               "0000000000000000"
               "0000000000000000"));
  EXPECT_EQ(acc.round, 11u);
  EXPECT_EQ(acc.instance, 4u);
  EXPECT_EQ(acc.echo_ts, 0);
  EXPECT_EQ(acc.decided_upto, 0u);
}

}  // namespace
}  // namespace lls
