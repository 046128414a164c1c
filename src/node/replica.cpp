#include "node/replica.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "ba/adversaries/adversaries.hpp"
#include "common/check.hpp"

namespace mewc::node {

namespace {

smr::Ledger::Config ledger_config(const ReplicaConfig& config) {
  smr::Ledger::Config c;
  c.n = config.n;
  c.t = config.t;
  c.backend = config.backend;
  c.seed = config.seed;
  c.checkpoint_every = config.checkpoint_every;
  c.base_instance = config.base_instance;
  // The event kind is informational here — the replica never uses the
  // ledger's built-in simulated runners, only its record keeping.
  c.executor = ExecutorKind::kEvent;
  c.durability = config.durability;
  return c;
}

}  // namespace

Replica::Replica(const ReplicaConfig& config)
    : config_(config),
      family_(config.n, config.t, config.backend, config.seed),
      ledger_(ledger_config(config)) {
  MEWC_CHECK_MSG(config_.transport != nullptr && config_.sync != nullptr,
                 "a replica needs a transport and a round-closure policy");
  MEWC_CHECK_MSG(config_.id < config_.n, "replica id out of range");
}

void Replica::install(smr::RestoredState state, smr::KvState kv) {
  ledger_.install(std::move(state));
  kv_ = std::move(kv);
  seal_due_checkpoint();
}

const smr::SlotRecord& Replica::run_slot(Value proposal) {
  const std::uint64_t slot = ledger_.slots().size();
  const ProcessId proposer = ledger_.proposer_of(slot);

  harness::RunSpec spec = ledger_.prepare_spec(slot);
  harness::RunInputs inputs;
  inputs.values = std::vector<WireValue>(config_.n, WireValue::plain(proposal));
  inputs.sender = proposer;

  const harness::RunReport report =
      run_distributed(*harness::find_driver("bb"), spec, inputs);
  const smr::SlotRecord& rec = ledger_.commit(slot, report);
  // The checkpoint this slot makes due runs on the odd instance lane —
  // strictly after this slot's instance, strictly before the next one, so
  // instance nonces stay monotonic on the wire.
  seal_due_checkpoint();

  ++stats_.slots_run;
  stats_.skipped += rec.skipped ? 1 : 0;
  stats_.fallbacks += rec.fallback ? 1 : 0;
  if (!rec.skipped) {
    ++stats_.committed;
    kv_.apply(smr::Command::unpack(rec.value));
  }
  return rec;
}

void Replica::seal_due_checkpoint() {
  if (!ledger_.checkpoint_due()) return;
  ++stats_.checkpoint_runs;
  ledger_.record_checkpoint(run_distributed(*harness::find_driver("strong-ba"),
                                            ledger_.checkpoint_spec(),
                                            ledger_.checkpoint_inputs()));
}

harness::RunReport Replica::run_distributed(
    const harness::ProtocolDriver& driver, const harness::RunSpec& spec,
    const harness::RunInputs& inputs) {
  // Mirror ProtocolDriver::run's cached-family discipline: per-instance
  // signature counters start from zero, and bundles are re-issued for all
  // n processes (key derivation is deterministic, so every node holds the
  // same trusted setup).
  family_.pki().reset_signature_counters();
  std::vector<KeyBundle> bundles;
  bundles.reserve(config_.n);
  for (ProcessId p = 0; p < config_.n; ++p) {
    bundles.push_back(family_.issue_bundle(p));
  }

  ProtocolContext ctx;
  ctx.id = config_.id;
  ctx.n = config_.n;
  ctx.t = config_.t;
  ctx.instance = spec.instance;
  ctx.crypto = &family_;
  ctx.keys = &bundles[config_.id];

  // Only this node's process exists locally; peer slots stay null and
  // their traffic arrives through the transport.
  std::vector<std::unique_ptr<IProcess>> processes(config_.n);
  processes[config_.id] = driver.make_process(ctx, inputs);
  const Round rounds = driver.total_rounds(config_.n, config_.t);

  adv::NullAdversary null_adv;
  EventExecutorConfig ec;
  ec.instance = spec.instance;
  ec.local = {config_.id};
  ec.transport = config_.transport;
  ec.sync = config_.sync;
  ec.poll_ms = config_.poll_ms;
  EventExecutor exec(family_, std::move(bundles), std::move(processes),
                     null_adv, ExecutorHooks{}, ec);
  exec.run(rounds);

  stats_.late_drops += exec.stats().late_drops;
  stats_.foreign_drops += exec.stats().foreign_drops;
  stats_.future_buffered += exec.stats().future_buffered;

  // Local-view report: this node's outcome replicated across every slot,
  // so RunReport::decision()/agreement() answer "what did *I* commit".
  // Cross-node agreement is audited by digest comparison, not here.
  harness::RunReport report;
  report.protocol = driver.name();
  report.sender = inputs.sender;
  report.rounds = rounds;
  report.meter = exec.meter();
  report.signatures_issued = family_.pki().signatures_issued();
  report.outcomes.assign(config_.n,
                         driver.outcome(exec.process(config_.id)));
  return report;
}

}  // namespace mewc::node
