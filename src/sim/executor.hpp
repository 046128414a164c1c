// Execution API (DESIGN.md §14): protocols run behind the IExecutor
// interface, constructed through make_executor(). Two implementations:
//
//  * the round-lockstep simulator (sim/executor.cpp, only reachable through
//    make_executor). One global loop drives all n processes and the
//    adversary through the synchronous schedule via direct inbox writes
//    (SyncNetwork).
//  * EventExecutor (sim/event_executor.hpp) — event-driven: processes
//    exchange envelopes through a net::Transport and rounds close when a
//    net::IRoundSync policy fires. The same class hosts a single process
//    of a socket cluster (mewc_node) and all n processes over an
//    in-process loopback; over loopback its transcripts are bit-identical
//    to the lockstep executor's (pinned by the DST equivalence grid).
//
// Hook invariant: observers and transformers are passed at construction in
// one ExecutorHooks bundle and are immutable for the executor's lifetime.
// There is deliberately no setter — a hook installed mid-run would see a
// suffix of the traffic, so recorded transcripts and digests would no
// longer be a pure function of (spec, inputs, adversary). The old
// set_payload_transform / set_message_recorder pre-run setter pair is gone.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "crypto/family.hpp"
#include "net/network.hpp"
#include "sim/adversary.hpp"
#include "sim/process.hpp"

namespace mewc {

/// Message-path hooks, fixed at executor construction (see header comment).
struct ExecutorHooks {
  /// Per-message payload transformer applied at post time — the wire
  /// codec's round-trip mode re-encodes and re-parses every message through
  /// it, proving nothing depends on in-memory payload sharing.
  std::function<PayloadPtr(const PayloadPtr&)> transform;
  /// Observer of every link-crossing message (self-deliveries excluded,
  /// matching the meter). Trace tooling and the DST recorder hang off this.
  std::function<void(const Message&, bool correct)> recorder;
};

/// Which IExecutor implementation drives a run.
enum class ExecutorKind {
  kLockstep,  // global synchronous loop (the original simulator)
  kEvent,     // transport + round-sync events, loopback by default
};

[[nodiscard]] const char* executor_kind_name(ExecutorKind kind);
[[nodiscard]] std::optional<ExecutorKind> parse_executor_kind(
    std::string_view name);

/// What the harness (and every other driver of a run) needs from an
/// executor: run the schedule, then expose the meter, the corruption set
/// and the surviving processes for result extraction.
class IExecutor {
 public:
  virtual ~IExecutor() = default;

  /// Runs rounds 1..total_rounds.
  virtual void run(Round total_rounds) = 0;

  [[nodiscard]] virtual const Meter& meter() const = 0;
  [[nodiscard]] virtual bool is_corrupted(ProcessId pid) const = 0;
  [[nodiscard]] virtual std::uint32_t corrupted_count() const = 0;
  [[nodiscard]] virtual std::vector<ProcessId> corrupted() const = 0;
  [[nodiscard]] virtual IProcess& process(ProcessId pid) = 0;
  [[nodiscard]] virtual const IProcess& process(ProcessId pid) const = 0;
  /// The key bundle of process pid; protocols hold a pointer to theirs.
  [[nodiscard]] virtual const KeyBundle& bundle(ProcessId pid) const = 0;
};

/// The one way to build an executor. kLockstep yields the classic
/// simulator; kEvent yields an EventExecutor hosting
/// all n processes over an owned loopback transport with quiescence round
/// closure (distributed deployments construct EventExecutor directly with
/// their transport — see sim/event_executor.hpp).
[[nodiscard]] std::unique_ptr<IExecutor> make_executor(
    ExecutorKind kind, const ThresholdFamily& family,
    std::vector<KeyBundle> bundles,
    std::vector<std::unique_ptr<IProcess>> processes, Adversary& adversary,
    ExecutorHooks hooks = {});

}  // namespace mewc
