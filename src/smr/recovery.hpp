// Crash-recovery and certified state sync for the durable ledger.
//
// A replica's durable state is a Store: WAL bytes plus (optionally) the
// latest snapshot blob. The Durability hook fills the store as the ledger
// commits; recover() rebuilds the replayable state after a crash —
// loading the last valid snapshot, replaying the WAL tail, truncating
// torn/corrupt records at the first bad checksum, and detecting a
// checkpoint that was due but never persisted; catch_up() is the
// word-efficient peer path: accept a checkpoint-certified snapshot plus
// slot tail from a peer instead of re-running consensus (the certified
// state transfer VABA motivates, arXiv:1811.01332).
//
// Recovery never aborts on hostile durable bytes: everything that cannot
// be fully verified is truncated, and the replica resumes from the longest
// verified prefix. A partially-written slot is never committed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "smr/kv_store.hpp"
#include "smr/ledger.hpp"
#include "smr/snapshot.hpp"

namespace mewc::smr {

/// A replica's durable bytes. In-memory so the DST engine can crash, tear,
/// and restart replicas deterministically; load_store/save_store move it
/// to/from a directory for `mewc_sim --wal-dir`.
struct Store {
  std::vector<std::uint8_t> wal;
  std::vector<std::uint8_t> snapshot;  // empty = none cut yet
};

/// Crash-injection point inside the Durability hook: a real crash stops
/// persistence mid-commit, so everything the hook would have written after
/// the injection point must not reach the store.
struct CrashPlan {
  /// Stop persisting after appending this slot's WAL record (the torn-tail
  /// mutation is applied separately, to the surviving bytes).
  std::uint64_t crash_slot = kNoCrashSlot;
  /// When the crash slot triggers a checkpoint: also persist the
  /// checkpoint's WAL record and die before the snapshot cut, modeling a
  /// crash between those two writes.
  bool after_checkpoint = false;
  /// Die while the crash slot's snapshot write is in flight: the
  /// checkpoint's WAL record is durable and the store's snapshot has been
  /// replaced by the new cut — the harness then truncates it at a seeded
  /// offset, modeling a non-atomic overwrite that destroyed the old
  /// snapshot without completing the new one. Takes precedence over
  /// after_checkpoint; degrades to a plain crash when the crash slot seals
  /// no accepted checkpoint.
  bool mid_snapshot = false;

  static constexpr std::uint64_t kNoCrashSlot = ~0ull;
};

/// The production durability sink: appends one WAL record per committed
/// slot and per sealed checkpoint, maintains the durable kv state, and
/// cuts a snapshot at every accepted checkpoint. Callbacks run serially,
/// in slot order; the frontier is frozen while a checkpoint seals. So the
/// store's byte stream is deterministic regardless of worker count.
class Durability final : public DurabilityHook {
 public:
  explicit Durability(Store* store, CrashPlan crash = {})
      : store_(store), crash_(crash) {
    MEWC_CHECK(store != nullptr);
  }

  /// Reinstates the durable kv mirror after recovery, before the ledger is
  /// restored (a pending-checkpoint completion may cut a snapshot that
  /// must carry this state).
  void reset_kv(KvState kv) { kv_ = std::move(kv); }

  [[nodiscard]] const KvState& kv() const { return kv_; }
  [[nodiscard]] bool crashed() const { return crashed_; }
  /// Snapshots cut so far (this process lifetime).
  [[nodiscard]] std::uint64_t snapshots_cut() const { return snapshots_cut_; }

  void on_commit(const SlotRecord& rec, const Ledger& ledger,
                 std::span<const std::uint8_t> batch) override;
  void on_checkpoint(const CheckpointRecord& rec,
                     const Ledger& ledger) override;

 private:
  Store* store_;
  CrashPlan crash_;
  KvState kv_;
  bool crashed_ = false;
  bool crash_pending_checkpoint_ = false;
  std::uint64_t snapshots_cut_ = 0;
};

struct RecoveryStats {
  bool used_snapshot = false;
  /// Cut point of the snapshot used (0 when recovering from genesis).
  std::uint64_t snapshot_slot = 0;
  /// WAL records applied beyond the snapshot cut.
  std::uint64_t records_replayed = 0;
  /// Torn/corrupt tail bytes dropped at the first bad checksum.
  std::uint64_t wal_bytes_truncated = 0;
  /// A checkpoint was due after the last durable slot but its record never
  /// made it to the WAL; the caller must complete it before serving.
  bool checkpoint_pending = false;
};

/// Recovered replayable state, ready for Ledger::install / Engine::restore.
struct Recovered {
  RestoredState state;
  KvState kv;
  RecoveryStats stats;
};

/// Rebuilds replica state from the store: scans the WAL, truncates the
/// invalid tail in place (store.wal shrinks to the verified prefix),
/// starts from the snapshot when it decodes and validates under
/// `config.seed` (else from genesis), and replays the remaining records.
/// After installing the result, seal the due checkpoint when
/// stats.checkpoint_pending is set (Ledger::checkpoint_due() agrees):
/// Engine::restore and node::Replica::install do, and no slot commits
/// before it is sealed.
[[nodiscard]] Recovered recover(const Ledger::Config& config, Store& store);

struct CatchUpStats {
  bool ok = false;
  /// The peer snapshot carried a checkpoint certificate that validates.
  bool cert_ok = false;
  std::uint64_t snapshot_slot = 0;
  /// Slot records transferred beyond the snapshot cut.
  std::uint64_t tail_slots = 0;
  /// Total transfer cost in words (8-byte units of snapshot + tail bytes) —
  /// the number to compare against re-running consensus for the same range.
  std::uint64_t words_transferred = 0;
};

/// Catch-up result: the transferred state plus its cost.
struct CaughtUp {
  RestoredState state;
  KvState kv;
  CatchUpStats stats;
};

/// State sync from a peer: accepts the peer's snapshot only if its
/// checkpoint certificate validates under `config.seed`, then replays the
/// peer's WAL tail past the cut. No consensus instance runs. Returns
/// stats.ok == false (and no state) when the peer has no usable certified
/// snapshot — the caller falls back to full recovery/replay.
[[nodiscard]] CaughtUp catch_up(const Ledger::Config& config,
                                const Store& peer);

/// Directory persistence for `mewc_sim --wal-dir`: `wal.bin` +
/// `snapshot.bin`. Loading tolerates missing files (fresh replica);
/// returns nullopt only when the directory is unusable.
[[nodiscard]] std::optional<Store> load_store(const std::string& dir);
[[nodiscard]] bool save_store(const std::string& dir, const Store& store);

}  // namespace mewc::smr
