#include "smr/engine.hpp"

#include <algorithm>
#include <utility>

#include "ba/adversaries/adversaries.hpp"
#include "common/check.hpp"
#include "smr/batch.hpp"

namespace mewc::smr {

namespace {

const harness::ProtocolDriver& bb_driver() {
  const harness::ProtocolDriver* d = harness::find_driver("bb");
  MEWC_CHECK_MSG(d != nullptr, "bb driver missing from registry");
  return *d;
}

}  // namespace

Engine::Engine(const EngineConfig& config)
    : config_(config),
      ledger_([&config] {
        Ledger::Config c;
        c.n = config.n;
        c.t = config.t;
        c.backend = config.backend;
        c.seed = config.seed;
        c.checkpoint_every = config.checkpoint_every;
        c.base_instance = config.base_instance;
        c.executor = config.executor;
        c.durability = config.durability;
        return c;
      }()),
      scheduler_(config.workers, config.queue_capacity),
      bb_(bb_driver()) {
  caches_.reserve(config.workers);
  for (std::uint32_t w = 0; w < config.workers; ++w) {
    caches_.push_back(std::make_unique<harness::SetupCache>());
  }
}

Engine::~Engine() {
  finish();
  scheduler_.shutdown();
}

void Engine::submit(Value proposal, const Ledger::AdversaryFactory& adversary) {
  admit(proposal, 1, {}, adversary);
}

void Engine::submit_batch(std::span<const Command> commands,
                          const Ledger::AdversaryFactory& adversary) {
  MEWC_CHECK_MSG(!commands.empty(), "a batch carries at least one command");
  std::vector<std::uint8_t> blob = batch::encode(commands);
  const Value proposal = batch::handle(blob);
  admit(proposal, commands.size(), std::move(blob), adversary);
}

void Engine::admit(Value proposal, std::uint64_t ops,
                   std::vector<std::uint8_t> blob,
                   const Ledger::AdversaryFactory& adversary) {
  const std::uint64_t window =
      static_cast<std::uint64_t>(config_.queue_capacity) + config_.workers;
  std::uint64_t slot = 0;
  {
    std::unique_lock<std::mutex> lock(commit_mu_);
    // Pipeline-window backpressure: never run more than `window` slots
    // ahead of the commit frontier, so the reorder buffer stays bounded
    // even when the frontier slot is the slowest instance in flight.
    if (next_slot_ - next_commit_ >= window) {
      ++window_waits_;
      window_open_.wait(lock,
                        [&] { return next_slot_ - next_commit_ < window; });
    }
    slot = next_slot_++;
    ++stats_.submitted;
    stats_.ops_submitted += ops;
    if (!blob.empty()) {
      // The blob must be attached before the instance can possibly commit;
      // the commit lock is already held, which is what attach_payload's
      // thread-safety contract asks for.
      ledger_.attach_payload(slot, std::move(blob));
      stats_.batch_extra_words +=
          static_cast<std::uint64_t>(config_.n) * (ops - 1);
    }
  }
  // The scheduler may also apply its own queue backpressure here;
  // commit_mu_ must not be held or a full queue would deadlock against the
  // committing workers.
  scheduler_.submit([this, slot, proposal, adversary](std::uint32_t worker) {
    harness::RunSpec spec = ledger_.prepare_spec(slot);
    spec.setup_cache = caches_[worker].get();
    const ProcessId proposer = ledger_.proposer_of(slot);

    std::unique_ptr<Adversary> adv;
    if (adversary) adv = adversary(slot, proposer);
    adv::NullAdversary null_adv;
    Adversary& adv_ref = adv ? *adv : static_cast<Adversary&>(null_adv);

    harness::RunInputs inputs;
    inputs.values =
        std::vector<WireValue>(config_.n, WireValue::plain(proposal));
    inputs.sender = proposer;

    Prepared done;
    done.report = bb_.run(spec, inputs, adv_ref);
    done.adversary = adversary;
    complete(slot, std::move(done));
  });
}

void Engine::complete(std::uint64_t slot, Prepared done) {
  std::unique_lock<std::mutex> lock(commit_mu_);
  reorder_.emplace(slot, std::move(done));
  stats_.max_reorder_depth =
      std::max<std::uint64_t>(stats_.max_reorder_depth, reorder_.size());
  // While a checkpoint seals the frontier is frozen: park the report and
  // go back for new work; the sealing worker drains it afterwards.
  if (sealing_) return;
  // Advance the commit frontier: everything contiguous from next_commit_ is
  // committed now, in slot order, by whichever worker happened to fill the
  // gap. A commit that makes a checkpoint due stops the drain; this worker
  // then seals it with the lock released and resumes draining.
  for (;;) {
    Ledger::AdversaryFactory checkpoint_adversary;
    for (auto it = reorder_.find(next_commit_);
         it != reorder_.end() && !ledger_.checkpoint_due();
         it = reorder_.find(next_commit_)) {
      Prepared& p = it->second;
      const SlotRecord& rec = ledger_.commit(it->first, p.report);
      meter_.merge(p.report.meter);
      ++stats_.committed;
      stats_.skipped += rec.skipped ? 1 : 0;
      stats_.fallbacks += rec.fallback ? 1 : 0;
      checkpoint_adversary = std::move(p.adversary);
      reorder_.erase(it);
      ++next_commit_;
    }
    window_open_.notify_all();
    if (!ledger_.checkpoint_due()) return;

    // The ledger's checkpoint state and cache are this worker's alone
    // until it re-locks: no slot commits while the checkpoint is due, and
    // sealing_ keeps every other worker out of this loop. Admission only
    // attaches payloads, which the seal does not touch.
    sealing_ = true;
    lock.unlock();
    ledger_.complete_pending_checkpoint(checkpoint_adversary);
    lock.lock();
    sealing_ = false;
  }
}

void Engine::finish() {
  scheduler_.drain();
  std::lock_guard<std::mutex> lock(commit_mu_);
  MEWC_CHECK_MSG(reorder_.empty(), "drained engine has uncommitted slots");
  MEWC_CHECK(next_commit_ == next_slot_);
  stats_.setup_cache_hits = 0;
  stats_.setup_cache_misses = 0;
  stats_.crypto_pairings = 0;
  stats_.crypto_memo_hits = 0;
  for (const auto& cache : caches_) {
    stats_.setup_cache_hits += cache->hits();
    stats_.setup_cache_misses += cache->misses();
    const CryptoVerifyStats crypto = cache->crypto_verify_stats();
    stats_.crypto_pairings += crypto.pairings;
    stats_.crypto_memo_hits += crypto.memo_hits;
  }
  const CryptoVerifyStats checkpoint =
      ledger_.checkpoint_cache().crypto_verify_stats();
  stats_.checkpoint_pairings = checkpoint.pairings;
  stats_.checkpoint_memo_hits = checkpoint.memo_hits;
  stats_.backpressure_waits =
      window_waits_ + scheduler_.stats().backpressure_waits;
}

void Engine::restore(RestoredState state,
                     const Ledger::AdversaryFactory& adversary) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  MEWC_CHECK_MSG(next_slot_ == 0, "restore before any submit");
  ledger_.install(std::move(state));
  ledger_.complete_pending_checkpoint(adversary);
  next_slot_ = next_commit_ = ledger_.slots().size();
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return stats_;
}

}  // namespace mewc::smr
