// Layer microbenchmarks for the traced runs: the wire codec over recorded
// protocol messages, and the pairing of the real crypto backend.
#pragma once

#include <cstdint>
#include <vector>

#include "check/record.hpp"
#include "net/payload.hpp"

namespace perfbench {

struct CodecTiming {
  double encode_ns = 0;  // per message
  double decode_ns = 0;  // per message
  std::size_t messages = 0;
  bool ok = true;  // every encoded message decoded back
};

/// Times wire::encode_into and wire::decode over those `payloads` that have
/// a wire form, `passes` times over the whole set.
[[nodiscard]] CodecTiming time_codec(
    const std::vector<mewc::PayloadPtr>& payloads, int passes);

/// Bodies of the messages the given cells put on the wire (recorded by
/// check::run_cell), at most `cap` of them.
[[nodiscard]] std::vector<mewc::PayloadPtr> record_payloads(
    const std::vector<mewc::check::CellSpec>& cells, std::size_t cap);

struct PairingTiming {
  double pairing_us = 0;
  bool bilinear = false;
};

/// Times rc::pairing on seeded subgroup points after a warm-up, and checks
/// bilinearity once so the timed function is known to compute a pairing.
[[nodiscard]] PairingTiming time_pairing(std::uint64_t seed, int iterations);

}  // namespace perfbench
