// One deployed consensus replica: the glue that runs the SMR ledger's
// BB-per-slot / strong-BA-per-checkpoint schedule over a real
// net::Transport instead of inside one simulated process space.
//
// The division of labour (DESIGN.md §14):
//
//  * smr::Ledger still owns slot ordering, the rolling digest, the
//    checkpoint cadence, and the durability hook — its byte streams are
//    shaped identically to the simulated deployment.
//  * Replica owns one EventExecutor per instance, hosting exactly this
//    node's process (`local = {id}`); every peer's process slot is null
//    and their traffic arrives through the transport. The trusted setup
//    (a ThresholdFamily derived from the shared seed) is instantiated
//    once per replica and reused across instances the same way a
//    harness::SetupCache reuses it, so per-instance signature streams
//    match the simulation bit for bit.
//  * The checkpoint lane is routed back through the ledger's
//    checkpoint_runner hook, so a cadence-triggered strong BA runs across
//    the cluster (odd instance-nonce lane) exactly where the simulated
//    ledger would have run it in-process.
//
// A replica only observes its own protocol endpoint, so the RunReport it
// synthesizes replicates the local decision across all process slots:
// RunReport::decision() is "what this node decided", and cluster-level
// agreement is checked where it belongs — by comparing ledger/kv digests
// across nodes (tools/node_smoke.sh, EXPERIMENTS.md E-NODE).
#pragma once

#include <cstdint>

#include "net/transport.hpp"
#include "sim/event_executor.hpp"
#include "smr/kv_store.hpp"
#include "smr/ledger.hpp"

namespace mewc::node {

struct ReplicaConfig {
  ProcessId id = 0;
  std::uint32_t n = 4;
  std::uint32_t t = 1;
  ThresholdBackend backend = ThresholdBackend::kSim;
  /// Shared cluster seed: every node derives the same trusted setup from
  /// it (the dealer of the threshold scheme, amortized out of band).
  std::uint64_t seed = 0x5e7u;
  std::uint32_t checkpoint_every = 0;
  std::uint64_t base_instance = 1000;
  /// Borrowed; must outlive the replica. The transport demuxes instances,
  /// the sync decides round closure (watermarks + timeout in deployment).
  net::Transport* transport = nullptr;
  net::IRoundSync* sync = nullptr;
  /// Per-poll receive timeout forwarded to every EventExecutor.
  int poll_ms = 1;
  /// Optional durability sink, forwarded to the ledger (not owned).
  smr::DurabilityHook* durability = nullptr;
};

struct ReplicaStats {
  std::uint64_t slots_run = 0;
  std::uint64_t committed = 0;  // non-skipped slots
  std::uint64_t skipped = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t checkpoint_runs = 0;
  /// Sum of the per-instance EventExecutor drop/buffer counters.
  std::uint64_t late_drops = 0;
  std::uint64_t foreign_drops = 0;
  std::uint64_t future_buffered = 0;
};

class Replica {
 public:
  explicit Replica(const ReplicaConfig& config);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Installs recovered ledger + kv state before any slot runs. If the
  /// durable state ends with a checkpoint due (crash between a slot's WAL
  /// record and its checkpoint), the checkpoint BA is completed here —
  /// across the cluster, so this only converges when the whole cluster
  /// restarts together, which is the deployment's recovery model.
  void install(smr::RestoredState state, smr::KvState kv);

  /// Runs the next slot's BB instance across the cluster. `proposal` is
  /// this node's candidate; it only matters when this node is the slot's
  /// rotation proposer. Applies the committed command to the kv state and
  /// fires the checkpoint lane on cadence. Blocking: returns when the
  /// instance's full round schedule has run.
  const smr::SlotRecord& run_slot(Value proposal);

  [[nodiscard]] const smr::Ledger& ledger() const { return ledger_; }
  [[nodiscard]] const smr::KvState& kv() const { return kv_; }
  [[nodiscard]] const ReplicaStats& stats() const { return stats_; }
  [[nodiscard]] ProcessId id() const { return config_.id; }
  [[nodiscard]] std::uint64_t next_slot() const {
    return ledger_.slots().size();
  }
  /// True when this node proposes the next slot.
  [[nodiscard]] bool proposes_next() const {
    return ledger_.next_proposer() == config_.id;
  }

 private:
  /// Runs one protocol instance (a slot's BB or a checkpoint's strong BA)
  /// across the cluster, hosting only this node's process, and synthesizes
  /// the local-view RunReport the ledger commits.
  harness::RunReport run_distributed(const harness::ProtocolDriver& driver,
                                     const harness::RunSpec& spec,
                                     const harness::RunInputs& inputs);

  ReplicaConfig config_;
  ThresholdFamily family_;
  smr::Ledger ledger_;
  smr::KvState kv_;
  ReplicaStats stats_;
};

}  // namespace mewc::node
