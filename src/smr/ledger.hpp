// State-machine replication over the paper's protocols: a replicated
// append-only log where each slot is one adaptive Byzantine Broadcast
// (rotating proposers) and periodic checkpoints are sealed with the binary
// strong BA of Algorithm 5.
//
// This is the workload the paper's introduction motivates ("BA is a key
// component in many distributed systems ... used at larger scales"): most
// slots are failure-free, and the adaptive protocols make those slots cost
// O(n) instead of the worst case. The ledger records per-slot outcomes,
// costs, and rolling digests so applications (and tests) can audit
// consistency end to end.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "ba/harness.hpp"

namespace mewc::smr {

/// Outcome of one log slot (one BB instance).
struct SlotRecord {
  std::uint64_t slot = 0;
  ProcessId proposer = kNoProcess;
  Value value = kBottom;  // the committed entry; kBottom == slot skipped
  bool skipped = false;   // Byzantine/silent proposer yielded ⊥
  bool agreement = false;
  bool fallback = false;
  std::uint64_t words = 0;
};

/// Outcome of one checkpoint vote (one Algorithm 5 instance).
struct CheckpointRecord {
  std::uint64_t after_slot = 0;
  std::uint64_t ledger_digest = 0;
  bool accepted = false;
  bool agreement = false;
  std::uint64_t words = 0;
};

class Ledger;

/// Durability callbacks, invoked synchronously in commit order while the
/// ledger already reflects the event. on_commit fires once per committed
/// slot (before any checkpoint that slot triggers); on_checkpoint fires
/// once per sealed checkpoint. Implementations append WAL records and cut
/// snapshots (src/smr/recovery.hpp); because commits are strictly in order
/// the durable byte stream is deterministic regardless of scheduling.
class DurabilityHook {
 public:
  virtual ~DurabilityHook() = default;
  /// `batch` is the blob attached to this slot via Ledger::attach_payload
  /// (empty when the slot carries a plain one-word command). The span
  /// borrows the ledger's payload table and is only valid for the duration
  /// of the call; implementations verify batch::handle(batch) == rec.value
  /// before trusting it.
  virtual void on_commit(const SlotRecord& rec, const Ledger& ledger,
                         std::span<const std::uint8_t> batch) = 0;
  virtual void on_checkpoint(const CheckpointRecord& rec,
                             const Ledger& ledger) = 0;
};

/// A ledger's complete replayable state, as reconstructed by recovery or
/// received through catch-up. Install into a fresh Ledger/Engine to resume
/// exactly where the durable state ends.
struct RestoredState {
  std::vector<SlotRecord> slots;
  std::vector<CheckpointRecord> checkpoints;
  std::uint64_t total_words = 0;
  std::uint32_t since_checkpoint = 0;
  bool healthy = true;
};

class Ledger {
 public:
  struct Config {
    std::uint32_t n = 0;
    std::uint32_t t = 0;
    ThresholdBackend backend = ThresholdBackend::kSim;
    std::uint64_t seed = 0x5e7u;
    /// Seal a checkpoint after every k committed slots (0 = never).
    std::uint32_t checkpoint_every = 0;
    /// Instance-nonce base; every slot/checkpoint gets a distinct nonce so
    /// no signature is replayable across instances.
    std::uint64_t base_instance = 1000;
    /// Which executor drives simulated instances (prepare_spec copies it
    /// into every slot/checkpoint RunSpec).
    ExecutorKind executor = ExecutorKind::kLockstep;
    /// Optional durability sink (not owned; must outlive the ledger).
    DurabilityHook* durability = nullptr;
  };

  /// Builds a per-slot adversary. An empty function means no corruption.
  using AdversaryFactory = std::function<std::unique_ptr<Adversary>(
      std::uint64_t slot, ProcessId proposer)>;

  explicit Ledger(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// The proposer the rotation assigns to the next slot.
  [[nodiscard]] ProcessId next_proposer() const;

  /// Runs one slot: the rotation proposer broadcasts `v` through BB. If the
  /// slot index hits the checkpoint cadence, a checkpoint vote follows.
  /// Equivalent to prepare_spec + driver run + commit +
  /// complete_pending_checkpoint; kept as the single-threaded convenience
  /// path.
  const SlotRecord& append(Value v,
                           const AdversaryFactory& adversary = nullptr);

  /// The proposer the rotation assigns to slot `slot`.
  [[nodiscard]] ProcessId proposer_of(std::uint64_t slot) const;

  /// Attaches an out-of-band batch blob to slot `slot` ahead of its commit
  /// (see src/smr/batch.hpp: consensus agrees on the blob's one-word
  /// handle; the blob itself is disseminated beside the instance). The
  /// blob is handed to the durability hook when the slot commits and
  /// dropped afterwards; attaching to an already-committed slot is an
  /// error. Thread-safety follows commit(): the engine serializes both
  /// under its commit lock. A checkpoint seal touches neither the payload
  /// table nor the slot list, so attaching while one runs is safe.
  void attach_payload(std::uint64_t slot, std::vector<std::uint8_t> blob);

  /// The blob attached to slot `slot` (empty span when none) — only
  /// meaningful between attach_payload and the slot's commit.
  [[nodiscard]] std::span<const std::uint8_t> payload_of(
      std::uint64_t slot) const;

  /// The RunSpec for slot `slot`'s BB instance (distinct instance nonce per
  /// slot; checkpoints use the odd nonce lane). Pure: safe to call from any
  /// thread for any future slot, which is what lets the SMR engine run many
  /// slots' instances concurrently before committing them in order.
  [[nodiscard]] harness::RunSpec prepare_spec(std::uint64_t slot) const;

  /// Records the outcome of slot `slot`'s BB instance. Slots must be
  /// committed strictly in order (`slot == slots().size()`) and never while
  /// a checkpoint is due: the caller seals it first, so the ledger digest
  /// and checkpoint stream are identical no matter how the instances were
  /// scheduled.
  const SlotRecord& commit(std::uint64_t slot,
                           const harness::RunReport& report);

  [[nodiscard]] const std::vector<SlotRecord>& slots() const { return slots_; }
  [[nodiscard]] const std::vector<CheckpointRecord>& checkpoints() const {
    return checkpoints_;
  }

  /// Committed (non-skipped) entries, in order.
  [[nodiscard]] std::vector<Value> committed() const;

  /// Rolling digest over all slot outcomes (skips included: a skipped slot
  /// is itself agreed state).
  [[nodiscard]] std::uint64_t ledger_digest() const { return digest_; }

  [[nodiscard]] std::uint64_t total_words() const { return total_words_; }

  /// True while every slot and checkpoint reached agreement and every
  /// checkpoint was accepted.
  [[nodiscard]] bool healthy() const { return healthy_; }

  /// True when the last commit completed a cadence of non-skipped slots
  /// and its checkpoint is not sealed yet — after a commit that hits the
  /// cadence, and after installing durable state that ends between a
  /// slot's WAL record and its checkpoint's. No slot commits until it is
  /// sealed.
  [[nodiscard]] bool checkpoint_due() const {
    return config_.checkpoint_every != 0 &&
           since_checkpoint_ >= config_.checkpoint_every;
  }

  /// The rolling digest a ledger with this seed holds after committing
  /// exactly `slots` — how recovery and catch-up validate that a slot
  /// history is internally consistent before trusting it.
  [[nodiscard]] static std::uint64_t replay_digest(
      std::uint64_t seed, const std::vector<SlotRecord>& slots);

  /// Snapshot of the replayable state (for durability sinks).
  [[nodiscard]] RestoredState export_state() const;

  /// Installs recovered/caught-up state into a fresh ledger (no slots
  /// committed yet). Appends resume at slot `state.slots.size()` with the
  /// digest recomputed from the history; the durability hook does NOT fire
  /// for installed slots (they are already durable).
  void install(RestoredState state);

  /// Seals the due checkpoint with the built-in simulated strong BA
  /// (checkpoint_spec + checkpoint_inputs on the ledger's checkpoint cache,
  /// then record_checkpoint); `adversary` is asked for the instance with
  /// sender kNoProcess. The one seal entry point for append(), the engine,
  /// and recovery. The instance nonce depends only on the slot count, so a
  /// checkpoint completed after a crash matches the uninterrupted run's.
  /// No-op when no checkpoint is due.
  void complete_pending_checkpoint(const AdversaryFactory& adversary = nullptr);

  /// The strong-BA instance that seals the due checkpoint: the odd nonce
  /// lane between the last committed slot and the next one. A replica that
  /// runs it across a cluster uses this spec (with its own setup) so the
  /// record stream is shaped exactly like the simulated one.
  [[nodiscard]] harness::RunSpec checkpoint_spec() const;

  /// Every correct replica holds the same log (per-slot agreement), so all
  /// propose "my state matches the digest" = 1.
  [[nodiscard]] harness::RunInputs checkpoint_inputs() const;

  /// Records the due checkpoint from its strong BA's report and fires the
  /// durability hook. Requires checkpoint_due().
  const CheckpointRecord& record_checkpoint(const harness::RunReport& report);

  /// The trusted setup the built-in checkpoint BAs run on: one family for
  /// the ledger's lifetime, so key generation and the kReal verification
  /// memos carry over from one checkpoint to the next.
  [[nodiscard]] const harness::SetupCache& checkpoint_cache() const {
    return checkpoint_cache_;
  }

 private:
  Config config_;
  /// Not thread-safe (see SetupCache); seals run one at a time: append() is
  /// single-threaded, the engine lets one worker seal while the commit
  /// frontier is frozen, and recovery runs before any slot.
  harness::SetupCache checkpoint_cache_;
  /// Batch blobs awaiting their slot's commit, keyed by slot.
  std::map<std::uint64_t, std::vector<std::uint8_t>> payloads_;
  std::vector<SlotRecord> slots_;
  std::vector<CheckpointRecord> checkpoints_;
  std::uint64_t digest_;
  std::uint64_t total_words_ = 0;
  std::uint32_t since_checkpoint_ = 0;
  bool healthy_ = true;
};

}  // namespace mewc::smr
