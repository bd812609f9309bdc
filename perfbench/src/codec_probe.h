// Codec probe: replays payloads captured on a workload's own send path
// through the public wire decoders and reports nanoseconds per decode.
#pragma once

#include <vector>

#include "probe.h"

namespace perfbench {

/// Mean ns per decode over the samples (median of several timed passes);
/// 0 when there are no samples. Consensus samples may be group envelopes,
/// which are decoded and then their inner message, as a replica does;
/// client requests also decode their embedded Command, as routing does.
double decode_ns(const std::vector<PayloadSample>& samples);

}  // namespace perfbench
