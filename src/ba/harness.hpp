// One-call run harness: builds (or fetches from a SetupCache) the trusted
// setup, the processes and the executor for a protocol, runs the full round
// schedule against an adversary, and collects decisions, stats and the word
// meter. Used by tests, benches, tools and the SMR engine alike.
//
// Every protocol sits behind one ProtocolDriver (name-keyed registry): the
// driver knows how to build a process from uniform RunInputs and how to read
// a finished process's outcome; ProtocolDriver::run() is the one shared run
// skeleton around those two hooks, returning one RunReport shape.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ba/context.hpp"
#include "ba/validity/predicate.hpp"
#include "ba/value.hpp"
#include "sim/executor.hpp"

namespace mewc::harness {

/// Caches ThresholdFamily setups by (n, t, backend, seed) so threshold key
/// generation is amortized across many runs — the SMR engine's workers run
/// thousands of instances against a handful of system shapes. All key
/// material is derived deterministically from the seed, so a cached family
/// produces transcripts bit-identical to a fresh one; the harness resets
/// the PKI signature counters at run start so per-run signature counts are
/// identical too.
///
/// NOT thread-safe: one cache per worker thread (the Pki mutates signature
/// counters on every sign), never shared across concurrent runs.
class SetupCache {
 public:
  /// The cached family for this shape, constructing it on first use.
  [[nodiscard]] ThresholdFamily& family(std::uint32_t n, std::uint32_t t,
                                        ThresholdBackend backend,
                                        std::uint64_t seed);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const { return families_.size(); }

  /// Crypto verification work summed over every cached family: pairings
  /// actually evaluated and verification-memo hits avoided (kReal; all
  /// zeros under the ideal backends). The memo lives with the family, so a
  /// cache that spans many runs amortizes verified-cert digests across
  /// phases and instances — this is where that amortization is observable.
  [[nodiscard]] CryptoVerifyStats crypto_verify_stats() const;

 private:
  using Key = std::tuple<std::uint32_t, std::uint32_t, int, std::uint64_t>;
  std::map<Key, std::unique_ptr<ThresholdFamily>> families_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

struct RunSpec {
  std::uint32_t n = 0;
  std::uint32_t t = 0;
  std::uint64_t instance = 1;
  ThresholdBackend backend = ThresholdBackend::kSim;
  std::uint64_t seed = 0x5e7u;
  /// Re-encode and re-parse every message through the byte-level wire
  /// codec (src/wire): proves the run does not depend on in-memory payload
  /// sharing. Off by default (it costs time, not behaviour).
  bool codec_roundtrip = false;
  /// Which IExecutor implementation drives the run (DESIGN.md §14). Both
  /// kinds produce bit-identical transcripts, meters and decisions — the
  /// DST smoke grid pins this — so the choice costs time, not behaviour.
  ExecutorKind executor = ExecutorKind::kLockstep;
  /// Reuse the trusted setup from this cache instead of regenerating it
  /// (see SetupCache). Borrowed, may be nullptr; the caller keeps the cache
  /// alive for the duration of the run.
  SetupCache* setup_cache = nullptr;
  /// Optional observer of every link-crossing message (trace tooling).
  std::function<void(const Message&, bool correct)> recorder;
  /// Optional hook invoked once the trusted setup exists, before round 1.
  /// Gives observers access to the run's ThresholdFamily while the run is
  /// live — the src/check certificate scanner verifies every certificate
  /// crossing the wire against the real schemes through this.
  std::function<void(const ThresholdFamily&)> on_setup;
  /// Optional hook invoked after the last round, while the family is still
  /// alive — the last chance to verify anything buffered during the run
  /// (the certificate scanner drains its kReal batch-verify queue here).
  std::function<void(const ThresholdFamily&)> on_teardown;

  /// The single checked constructor both factories route through: every
  /// RunSpec in the codebase satisfies n >= 2t+1 (paper Section 8; a larger
  /// gap widens the adaptive regime).
  [[nodiscard]] static RunSpec checked(std::uint32_t n, std::uint32_t t);

  [[nodiscard]] static RunSpec for_t(std::uint32_t t) {
    return checked(n_for_t(t), t);
  }

  [[nodiscard]] static RunSpec with(std::uint32_t n, std::uint32_t t) {
    return checked(n, t);
  }

  /// Canonical one-line description ("n=9 t=4 seed=1455", plus backend /
  /// roundtrip markers when non-default) — the shared vocabulary for
  /// campaign cell labels and bench JSON labels.
  [[nodiscard]] std::string describe() const;
};

// ---------------------------------------------------------------------------
// Unified driver API
// ---------------------------------------------------------------------------

/// Builds the predicate for a weak BA run once the trusted setup exists.
using PredicateFactory = std::function<std::shared_ptr<const ValidityPredicate>(
    const ThresholdFamily&, std::uint64_t instance)>;

/// Uniform inputs for any protocol. `values[i]` is process i's proposal;
/// single-sender protocols (BB, ds-BB) read only `values[sender]`. The
/// predicate factory applies to external-validity protocols (weak BA) and
/// defaults to always-valid when unset.
struct RunInputs {
  std::vector<WireValue> values;
  ProcessId sender = kNoProcess;
  PredicateFactory predicate = nullptr;
};

/// One process's outcome: its decision plus the per-protocol observables
/// the tests and tools read. Fields a protocol does not produce keep their
/// defaults.
struct ProcessOutcome {
  bool decided = false;
  WireValue decision = bottom_value();  // bottom where !decided
  /// Vector-consensus lane (interactive consistency): the agreed vector,
  /// present once decided. nullopt for scalar protocols.
  std::optional<std::vector<Value>> vector;
  Round decided_round = 0;           // first round with a final decision
  std::uint64_t decided_phase = 0;   // weak BA: 0 if not during the phases
  bool decided_fast = false;         // strong BA: via the decide certificate
  bool adopted_from_sender = false;  // BB: adopted the sender's value
  bool fallback_participant = false;
  bool led_nonsilent_phase = false;  // rotating-phase protocols
  bool sent_help_req = false;        // weak BA help round

  friend bool operator==(const ProcessOutcome&,
                         const ProcessOutcome&) = default;
};

/// Uniform outcome of any protocol run.
struct RunReport {
  std::string protocol;           // driver name
  ProcessId sender = kNoProcess;  // designated sender (single-sender only)
  /// Copied from the executor at run end; breakdowns grow on demand, so a
  /// default-constructed meter never silently drops attribution.
  Meter meter;
  std::vector<ProcessId> corrupted;
  std::uint64_t signatures_issued = 0;
  Round rounds = 0;
  /// Per process; nullopt for corrupted processes.
  std::vector<std::optional<ProcessOutcome>> outcomes;

  [[nodiscard]] std::uint32_t f() const {
    return static_cast<std::uint32_t>(corrupted.size());
  }
  [[nodiscard]] bool is_corrupted(ProcessId p) const;
  /// Every correct process decided (vector protocols: holds a vector).
  [[nodiscard]] bool all_decided() const;
  /// All correct decisions (and vectors) agree.
  [[nodiscard]] bool agreement() const;
  /// The common decision; bottom when every process is corrupted.
  [[nodiscard]] WireValue decision() const;
  /// The common vector (vector protocols; empty otherwise).
  [[nodiscard]] std::vector<Value> vector() const;
  [[nodiscard]] bool any_fallback() const;
  /// Strong BA: every correct process decided fast.
  [[nodiscard]] bool all_fast() const;
  [[nodiscard]] std::uint32_t nonsilent_leaders() const;
  /// Weak BA: correct processes that sent a help request.
  [[nodiscard]] std::uint32_t help_reqs() const;
};

/// Static shape of a protocol, consumed by input derivation and the
/// phase-geometry-aware adversaries. Mirrors what used to live in the
/// per-protocol switch statements of src/check/protocols.cpp.
struct DriverTraits {
  /// One designated sender proposes; everyone else's input is ignored.
  bool single_sender = false;
  /// Inputs must be binary {0, 1} (strong BA, Algorithm 5).
  bool binary_values = false;
  /// Decisions are per-process vectors, not scalars (IC).
  bool vector_output = false;
  /// Rotating-leader phase structure, for the leader-killer adversary: the
  /// round the first phase starts in and the phase length. (1, 1) for
  /// protocols without rotating phases.
  Round phase_first = 1;
  Round phase_len = 1;
};

/// A protocol behind the uniform build/run/outcome surface. Stateless;
/// one registered instance per protocol.
class ProtocolDriver {
 public:
  virtual ~ProtocolDriver() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual DriverTraits traits() const = 0;

  /// Total rounds of the protocol's static schedule.
  [[nodiscard]] virtual Round total_rounds(std::uint32_t n,
                                           std::uint32_t t) const = 0;

  /// Global round of the help exchange (0 when the protocol has none).
  [[nodiscard]] virtual Round help_round(std::uint32_t n) const {
    (void)n;
    return 0;
  }

  /// Validates and normalizes inputs for this protocol (sizes them to n,
  /// clamps binary-value protocols). The default fills missing values with
  /// `base` and clamps when traits().binary_values.
  [[nodiscard]] std::vector<WireValue> prepare(std::uint32_t n,
                                               Value base) const;

  /// Builds process ctx.id's protocol instance; ctx.crypto is the run's
  /// trusted setup. Distributed hosts call this for their local process.
  [[nodiscard]] virtual std::unique_ptr<IProcess> make_process(
      const ProtocolContext& ctx, const RunInputs& inputs) const = 0;

  /// Reads the outcome of a finished process built by make_process().
  [[nodiscard]] virtual ProcessOutcome outcome(
      const IProcess& process) const = 0;

  /// Runs one instance in-process against `adversary` and returns the
  /// uniform report. Checks `inputs` against traits() first.
  [[nodiscard]] RunReport run(const RunSpec& spec, const RunInputs& inputs,
                              Adversary& adversary) const;
};

/// The registered driver with this name, or nullptr. Names: "bb",
/// "weak-ba", "strong-ba", "fallback", "ds-bb", "ic".
[[nodiscard]] const ProtocolDriver* find_driver(std::string_view name);

/// All registered drivers, in registration order.
[[nodiscard]] const std::vector<const ProtocolDriver*>& drivers();

}  // namespace mewc::harness
