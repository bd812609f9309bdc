// RSM command codec.
//
// Commands are the values the consensus log orders. Each carries an
// (origin process, sequence) pair, which (a) makes every submitted value
// byte-unique — required by LogConsensus's pending-queue completion
// matching — and (b) lets replicas deduplicate: consensus guarantees
// at-least-once placement across leader changes, the RSM turns that into
// exactly-once application. The origin's ack watermark rides along, so it
// is decided with the command and every replica prunes its dedup state
// and result cache at the same log position.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/serialization.h"
#include "common/types.h"
#include "net/wire.h"

namespace lls {

enum class KvOp : std::uint8_t {
  kPut = 1,      ///< key := value
  kGet = 2,      ///< read through the log (linearizable read)
  kDel = 3,      ///< erase key
  kAppend = 4,   ///< key := key + value
  kCas = 5,      ///< key := value iff key == expected
};

struct Command {
  ProcessId origin = kNoProcess;
  std::uint64_t seq = 0;
  KvOp op = KvOp::kGet;
  std::string key;
  std::string value;     ///< new value (kPut/kAppend/kCas)
  std::string expected;  ///< compare operand (kCas)
  /// Client marked this command as having no side effects (kGet only): a
  /// replica holding a valid leader lease may answer it from local state
  /// without a consensus instance; when the lease doesn't hold the command
  /// falls back to the ordered path unchanged. Commands that mutate must
  /// never set this.
  bool read_only = false;
  /// Every seq of this origin <= ack_upto had completed at the origin when
  /// it created this command (replied to or timed out). A reply is sent
  /// only once its command is applied, so each of those is applied at an
  /// earlier log position than this command, or is a timed-out op whose
  /// late placement every replica drops alike. 0 = nothing acked.
  std::uint64_t ack_upto = 0;

  LLS_WIRE_FIELDS(Command, origin, seq, op, key, value, expected, read_only,
                  ack_upto)
};

struct KvResult {
  bool ok = false;           ///< op succeeded (kCas: comparison held; kGet/kDel: key existed)
  bool found = false;        ///< key existed before the op
  std::string value;         ///< kGet: the read value; others: value after the op
};

/// The unit the consensus log actually orders: one or more commands. A
/// replica configured with batching packs a burst of submissions into one
/// log entry, amortizing the Θ(n) per-instance message cost over the batch
/// (an extension beyond the paper; see bench_a5_batching). Unbatched
/// replicas simply use singleton batches.
struct CommandBatch {
  std::vector<Command> commands;

  /// Exact encoded size (u32 count, then per command: u32 frame length +
  /// the command's own wire size). Lets encode() make a single sized
  /// allocation and lay every command flat — no per-command temporary.
  [[nodiscard]] std::size_t measured_size() const {
    std::size_t size = 4;
    for (const Command& c : commands) size += 4 + wire::measure(c);
    return size;
  }

  [[nodiscard]] Bytes encode() const {
    Bytes out(measured_size());
    FlatWriter w(out);
    w.put(static_cast<std::uint32_t>(commands.size()));
    wire::Encoder enc(w);
    for (const Command& c : commands) {
      w.put(static_cast<std::uint32_t>(wire::measure(c)));
      c.visit_fields(enc);
    }
    return out;
  }

  static CommandBatch decode(BytesView payload) {
    BufReader r(payload);
    CommandBatch b;
    auto count = r.get<std::uint32_t>();
    b.commands.reserve(std::min<std::size_t>(count, r.remaining() / 17));
    for (std::uint32_t i = 0; i < count; ++i) {
      // Borrow the length-prefixed frame instead of copying it out; the
      // decoded Command owns its strings, so nothing outlives `payload`.
      b.commands.push_back(Command::decode(r.get_view()));
    }
    return b;
  }
};

}  // namespace lls
