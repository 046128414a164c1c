// Pipelined multi-instance SMR engine: the artifact that turns the paper's
// per-instance word bounds into an amortized-throughput story. Many
// consensus instances (ledger slots) run concurrently on a fixed worker
// pool — instances are independent by construction because every slot gets
// a distinct `instance` nonce in its ProtocolContext — while commits into
// the ledger stay strictly in slot order, so the resulting ledger digest,
// checkpoint stream, and merged meter are bit-identical no matter how many
// workers ran the instances.
//
// Concurrency invariants:
//  - Each worker owns a private harness::SetupCache, so threshold key
//    generation is amortized across that worker's instances without ever
//    sharing the (non-thread-safe) Pki signature counters across threads.
//    Checkpoint BAs run on the ledger's own cache, which only the
//    commit-lock holder touches.
//  - Completed instance reports land in a reorder buffer keyed by slot; the
//    completing worker also advances the commit frontier while holding the
//    commit lock, so commits (including checkpoint BAs) are serial and in
//    order. submit() blocks while queue capacity + workers slots are
//    outstanding (admitted but uncommitted), so the pipeline — and with it
//    the reorder buffer — can never run further ahead of the commit
//    frontier than that window.
//  - The run-level Meter is the slot-ordered merge of per-instance meters
//    (checkpoint instances are accounted in the ledger's word totals).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "smr/kv_store.hpp"
#include "smr/ledger.hpp"
#include "smr/scheduler.hpp"

namespace mewc::smr {

struct EngineConfig {
  std::uint32_t n = 3;
  std::uint32_t t = 1;
  ThresholdBackend backend = ThresholdBackend::kSim;
  std::uint64_t seed = 0x5e7u;
  /// Worker threads running consensus instances.
  std::uint32_t workers = 1;
  /// Admission-queue bound; with the worker count it also sizes the
  /// pipeline window: submit() blocks while queue_capacity + workers slots
  /// are admitted but not yet committed (backpressure).
  std::uint32_t queue_capacity = 16;
  /// Seal a checkpoint after every k committed slots (0 = never).
  std::uint32_t checkpoint_every = 0;
  /// Instance-nonce base, forwarded to the ledger.
  std::uint64_t base_instance = 1000;
  /// Which executor drives each consensus instance, forwarded to the
  /// ledger's RunSpecs (DESIGN.md §14; behaviour-identical either way).
  ExecutorKind executor = ExecutorKind::kLockstep;
  /// Optional durability sink, forwarded to the ledger. Callbacks run under
  /// the commit lock, in slot order (not owned; must outlive the engine).
  DurabilityHook* durability = nullptr;
};

struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t fallbacks = 0;
  /// Client operations admitted: one per submit(), the batch size per
  /// submit_batch(). Words-per-op divides by this, not by slots.
  std::uint64_t ops_submitted = 0;
  /// Dissemination cost of batch blobs, charged as n x (k-1) words per
  /// batch of k (the first command rides in the BB payload itself; the
  /// other k-1 words must reach every process out-of-band). Added to the
  /// meter/ledger word totals when computing words-per-op.
  std::uint64_t batch_extra_words = 0;
  /// Setup-cache traffic summed over workers. Hits + misses == instances
  /// run; the split across workers depends on scheduling, so only the sum
  /// is deterministic.
  std::uint64_t setup_cache_hits = 0;
  std::uint64_t setup_cache_misses = 0;
  /// kReal crypto verification work summed over the workers' setup caches
  /// (zero under the ideal backends): pairings actually evaluated, and
  /// verifications answered from the per-family memo instead. High memo
  /// traffic is the amortization story — one aggregate verify per quorum
  /// cert, then cache hits as the same cert recurs across phases and slots.
  std::uint64_t crypto_pairings = 0;
  std::uint64_t crypto_memo_hits = 0;
  /// The same counters for the checkpoint BAs, read from the ledger's
  /// checkpoint setup cache. Kept apart so crypto_* stays a per-BB-slot
  /// cost.
  std::uint64_t checkpoint_pairings = 0;
  std::uint64_t checkpoint_memo_hits = 0;
  /// Largest number of completed-but-uncommitted instances observed.
  std::uint64_t max_reorder_depth = 0;
  /// submit() calls that blocked on the pipeline window plus, from the
  /// scheduler, any that blocked on a full queue.
  std::uint64_t backpressure_waits = 0;
};

class Engine {
 public:
  explicit Engine(const EngineConfig& config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Admits one proposal for the next slot; the rotation proposer
  /// broadcasts it through adaptive BB on some worker. Blocks when the
  /// admission queue is full. An optional per-slot adversary factory makes
  /// faulty instances expressible (it must be safe to call concurrently;
  /// each returned adversary is used by exactly one instance).
  void submit(Value proposal,
              const Ledger::AdversaryFactory& adversary = nullptr);

  /// Admits one *batch* of commands for the next slot: the batch is
  /// encoded once (src/smr/batch.hpp), its one-word handle is what the
  /// rotation proposer broadcasts through BB, and the blob is attached to
  /// the ledger slot so the durability hook applies and persists the whole
  /// batch when the slot commits. Consensus cost is one instance no matter
  /// how large the batch — that is the words-per-op lever. Blocks like
  /// submit() when the pipeline window is full.
  void submit_batch(std::span<const Command> commands,
                    const Ledger::AdversaryFactory& adversary = nullptr);

  /// Waits for every admitted instance to run and commit. submit() may be
  /// called again afterwards; finish() is idempotent and implied by the
  /// destructor. ledger()/meter()/stats() are only meaningful after it.
  void finish();

  /// Installs recovered ledger state before any submit(); subsequent
  /// submissions continue from slot `state.slots.size()` with the same
  /// instance nonces the uninterrupted run would have used. When the
  /// recovered state has a checkpoint due (crash between a slot's WAL
  /// record and its checkpoint record), the checkpoint BA is completed
  /// here, before any new slot runs — its nonce depends only on the slot
  /// count, so the sealed record matches the uninterrupted run's.
  void restore(RestoredState state,
               const Ledger::AdversaryFactory& adversary = nullptr);

  [[nodiscard]] const Ledger& ledger() const { return ledger_; }
  /// Slot-ordered merge of the per-instance meters (BB instances only;
  /// checkpoint words are in ledger().total_words()).
  [[nodiscard]] const Meter& meter() const { return meter_; }
  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] std::uint32_t workers() const { return scheduler_.workers(); }

 private:
  struct Prepared {
    harness::RunReport report;
    Ledger::AdversaryFactory adversary;
  };

  void complete(std::uint64_t slot, Prepared done);

  /// Shared admission path: waits for the pipeline window, assigns the
  /// slot, attaches the (possibly empty) batch blob, and schedules the BB
  /// instance proposing `proposal`. `ops` is the client-op count the slot
  /// carries (1 for a plain submit, k for a batch of k).
  void admit(Value proposal, std::uint64_t ops,
             std::vector<std::uint8_t> blob,
             const Ledger::AdversaryFactory& adversary);

  EngineConfig config_;
  Ledger ledger_;
  Scheduler scheduler_;
  const harness::ProtocolDriver& bb_;

  /// One trusted-setup cache per worker; workers only ever touch their own.
  std::vector<std::unique_ptr<harness::SetupCache>> caches_;

  /// Guards the reorder buffer, the ledger, the merged meter, and stats.
  mutable std::mutex commit_mu_;
  /// Signalled when the commit frontier advances; submit() waits on it
  /// while the pipeline window (queue capacity + workers) is full.
  std::condition_variable window_open_;
  std::map<std::uint64_t, Prepared> reorder_;
  std::uint64_t next_commit_ = 0;
  std::uint64_t next_slot_ = 0;
  std::uint64_t window_waits_ = 0;
  Meter meter_;
  EngineStats stats_;
};

}  // namespace mewc::smr
