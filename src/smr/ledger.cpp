#include "smr/ledger.hpp"

#include "ba/adversaries/adversaries.hpp"
#include "common/hash.hpp"

namespace mewc::smr {

Ledger::Ledger(Config config)
    : config_(config), digest_(mix64(config.seed ^ 0x1ed6e2)) {
  MEWC_CHECK(config_.n >= 2 * config_.t + 1);
}

ProcessId Ledger::next_proposer() const { return proposer_of(slots_.size()); }

void Ledger::attach_payload(std::uint64_t slot,
                            std::vector<std::uint8_t> blob) {
  MEWC_CHECK_MSG(slot >= slots_.size(), "payload for an already-committed slot");
  payloads_[slot] = std::move(blob);
}

std::span<const std::uint8_t> Ledger::payload_of(std::uint64_t slot) const {
  const auto it = payloads_.find(slot);
  if (it == payloads_.end()) return {};
  return it->second;
}

ProcessId Ledger::proposer_of(std::uint64_t slot) const {
  return static_cast<ProcessId>(slot % config_.n);
}

harness::RunSpec Ledger::prepare_spec(std::uint64_t slot) const {
  harness::RunSpec spec = harness::RunSpec::with(config_.n, config_.t);
  spec.backend = config_.backend;
  spec.seed = config_.seed;
  spec.executor = config_.executor;
  // Distinct instance nonce per slot: checkpoints use the odd lane.
  spec.instance = config_.base_instance + 2 * slot;
  return spec;
}

const SlotRecord& Ledger::append(Value v, const AdversaryFactory& adversary) {
  const std::uint64_t slot = slots_.size();
  const ProcessId proposer = proposer_of(slot);
  const harness::RunSpec spec = prepare_spec(slot);

  std::unique_ptr<Adversary> adv;
  if (adversary) adv = adversary(slot, proposer);
  adv::NullAdversary null_adv;
  Adversary& adv_ref = adv ? *adv : static_cast<Adversary&>(null_adv);

  const harness::ProtocolDriver* bb = harness::find_driver("bb");
  MEWC_CHECK(bb != nullptr);
  harness::RunInputs inputs;
  inputs.values = std::vector<WireValue>(config_.n, WireValue::plain(v));
  inputs.sender = proposer;
  return commit(slot, bb->run(spec, inputs, adv_ref), adversary);
}

const SlotRecord& Ledger::commit(std::uint64_t slot,
                                 const harness::RunReport& report,
                                 const AdversaryFactory& adversary) {
  MEWC_CHECK_MSG(slot == slots_.size(), "slots commit strictly in order");

  SlotRecord rec;
  rec.slot = slot;
  rec.proposer = proposer_of(slot);
  rec.agreement = report.agreement();
  rec.fallback = report.any_fallback();
  rec.words = report.meter.words_correct;
  rec.value = report.decision().value;
  rec.skipped = rec.value.is_bottom();

  healthy_ &= rec.agreement;
  total_words_ += rec.words;
  // The digest covers the agreed outcome of every slot, skips included.
  digest_ = hash_combine(digest_, hash_combine(slot, rec.value.raw));
  slots_.push_back(rec);
  const auto payload = payloads_.find(slot);
  if (config_.durability != nullptr) {
    config_.durability->on_commit(
        slots_.back(), *this,
        payload != payloads_.end()
            ? std::span<const std::uint8_t>(payload->second)
            : std::span<const std::uint8_t>());
  }
  // The blob's one committal chance was this slot; drop it either way.
  if (payload != payloads_.end()) payloads_.erase(payload);

  if (!rec.skipped && config_.checkpoint_every != 0) {
    if (++since_checkpoint_ >= config_.checkpoint_every) {
      since_checkpoint_ = 0;
      run_checkpoint(adversary);
    }
  }
  return slots_.back();
}

void Ledger::run_checkpoint(const AdversaryFactory& adversary) {
  harness::RunSpec spec = harness::RunSpec::with(config_.n, config_.t);
  spec.backend = config_.backend;
  spec.seed = config_.seed;
  spec.executor = config_.executor;
  // Odd lane *between* the just-committed slot (base + 2k) and the next
  // one (base + 2k + 2): instance nonces are strictly increasing in
  // execution order, which the networked deployment relies on (watermarks
  // and the transport's stale-instance floor both advance monotonically).
  spec.instance = config_.base_instance + 2 * slots_.size() - 1;

  // Every correct replica holds the same log (per-slot agreement), so all
  // propose "my state matches the digest" = 1; the binary strong BA then
  // seals the checkpoint, cheaply when the round is failure-free (Lemma 8).
  harness::RunInputs inputs;
  inputs.values =
      std::vector<WireValue>(config_.n, WireValue::plain(Value(1)));

  harness::RunReport res;
  if (config_.checkpoint_runner) {
    res = config_.checkpoint_runner(spec, inputs);
  } else {
    std::unique_ptr<Adversary> adv;
    if (adversary) adv = adversary(slots_.size(), kNoProcess);
    adv::NullAdversary null_adv;
    Adversary& adv_ref = adv ? *adv : static_cast<Adversary&>(null_adv);

    const harness::ProtocolDriver* sba = harness::find_driver("strong-ba");
    MEWC_CHECK(sba != nullptr);
    spec.setup_cache = &checkpoint_cache_;
    res = sba->run(spec, inputs, adv_ref);
  }

  CheckpointRecord rec;
  rec.after_slot = slots_.size();
  rec.ledger_digest = digest_;
  rec.agreement = res.agreement();
  rec.accepted = res.decision().value == Value(1);
  rec.words = res.meter.words_correct;

  healthy_ &= rec.agreement && rec.accepted;
  total_words_ += rec.words;
  checkpoints_.push_back(rec);
  if (config_.durability != nullptr) {
    config_.durability->on_checkpoint(checkpoints_.back(), *this);
  }
}

std::uint64_t Ledger::replay_digest(std::uint64_t seed,
                                    const std::vector<SlotRecord>& slots) {
  std::uint64_t d = mix64(seed ^ 0x1ed6e2);
  for (const SlotRecord& s : slots) {
    d = hash_combine(d, hash_combine(s.slot, s.value.raw));
  }
  return d;
}

RestoredState Ledger::export_state() const {
  RestoredState state;
  state.slots = slots_;
  state.checkpoints = checkpoints_;
  state.total_words = total_words_;
  state.since_checkpoint = since_checkpoint_;
  state.healthy = healthy_;
  return state;
}

void Ledger::install(RestoredState state) {
  MEWC_CHECK_MSG(slots_.empty() && checkpoints_.empty(),
                 "install only into a fresh ledger");
  for (std::size_t i = 0; i < state.slots.size(); ++i) {
    MEWC_CHECK_MSG(state.slots[i].slot == i, "restored slots must be dense");
  }
  slots_ = std::move(state.slots);
  checkpoints_ = std::move(state.checkpoints);
  digest_ = replay_digest(config_.seed, slots_);
  total_words_ = state.total_words;
  since_checkpoint_ = state.since_checkpoint;
  healthy_ = state.healthy;
}

void Ledger::complete_pending_checkpoint(const AdversaryFactory& adversary) {
  if (config_.checkpoint_every == 0 ||
      since_checkpoint_ < config_.checkpoint_every) {
    return;
  }
  since_checkpoint_ = 0;
  run_checkpoint(adversary);
}

std::vector<Value> Ledger::committed() const {
  std::vector<Value> out;
  for (const SlotRecord& s : slots_) {
    if (!s.skipped) out.push_back(s.value);
  }
  return out;
}

}  // namespace mewc::smr
