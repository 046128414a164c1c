// Single-threaded bench client for a mewc_node cluster: one TCP connection
// per node client port, multiplexed with ppoll(), speaking the framing of
// src/node/client.hpp (op 0x10 / ack 0x11 inside a wire::frame).
//
// Open loop: op i is due at start + i / rate and goes to node i mod n. Its
// latency is timed from that due time, so a generator that falls behind
// still charges the delay to the ops it held up; how late each op was
// actually sent is recorded beside it (scheduling lag). Closed loop: every
// connection keeps `depth` ops outstanding, and an op is due when the ack
// that freed its place arrived.
//
// Both loops obey the slot-budget stop rule (stop_rule.hpp): an op the
// nodes could no longer serve before their --slots run out is not issued.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::vector<std::uint16_t> ports;  // one client port per node
  bool open_loop = true;
  double rate = 0;             // open loop: ops per second, whole cluster
  std::uint32_t depth = 0;     // closed loop: outstanding ops per connection
  std::uint64_t ops = 0;       // op budget
  std::uint64_t slot_budget = 0;  // the nodes' --slots
  double nominal_slot_rate = 0;   // stop-rule estimate before acks span 1 s
  std::uint64_t guard_slots = 0;
  std::uint32_t keys = 1;
  std::uint64_t seed = 0;
  double deadline_s = 0;       // hard stop of the whole loop
};

/// One budgeted op. Times are CLOCK_MONOTONIC ns; 0 means "did not happen".
struct OpRecord {
  std::uint32_t node = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t ack_ns = 0;  // first ack
  std::uint64_t slot = 0;
  std::uint64_t kv_digest = 0;
  std::uint32_t status = 0;
  std::uint32_t acks = 0;  // every ack received for this op id
};

struct ClientResult {
  bool connected = false;
  std::string error;
  std::uint64_t bad_frames = 0;  // acks that do not parse or name no sent op
  bool stopped_by_rule = false;
  std::vector<OpRecord> ops;  // indexed by op id
  /// From replay_kv: acked-ok ops whose ack carries another kv digest than
  /// the replay reached after their slot, and the replay's digest after the
  /// last slot of the budget.
  std::uint64_t kv_mismatches = 0;
  std::uint64_t replayed_kv = 0;
};

/// The command op `index` carries: a put of a uniform 40-bit value to a
/// uniform key in [0, keys), derived from (seed, index) alone.
[[nodiscard]] std::uint64_t op_word(std::uint64_t seed, std::uint64_t index,
                                    std::uint32_t keys);

/// Connects to every port and runs the loop until every budgeted op was
/// issued or refused by the stop rule and every issued op was acked, every
/// connection closed, or the deadline passed.
[[nodiscard]] ClientResult run_client(const ClientConfig& config);

/// Replays the run through smr::KvState the way every node applies it when
/// no slot is skipped: slot by slot over `config.slot_budget` slots, the put
/// of the op acked ok at that slot, or the proposer's noop filler where no
/// op was acked. Sets `result.kv_mismatches` (acks whose kv digest differs
/// from the replay after their slot, plus ops acked at a slot already taken
/// or past the budget) and `result.replayed_kv`, which must equal every
/// node's final kv digest. run_client calls it before returning.
void replay_kv(const ClientConfig& config, ClientResult& result);

/// Tab-separated, one line per budgeted op:
/// `id node due_ns sent_ns ack_ns slot kv_digest status acks`.
[[nodiscard]] bool write_ops(const std::string& path,
                             const std::vector<OpRecord>& ops);

}  // namespace perfbench
