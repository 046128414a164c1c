// engine-real: smr::Engine with ThresholdBackend::kReal, a seeded crash
// adversary on every slot, an in-memory smr::Durability hook, and one
// thread submitting single commands back-to-back through the admission
// window. Set-up is timed from construction until every worker has built
// its trusted setup, several times; the last engine is the one measured.
//
// Correctness: a reference engine on the ideal kSim backend with one worker
// runs the same slots and adversary; the sim<->real differential
// guarantees equal ledger digests, word totals and kv digests.
#include "engine_run.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <memory>

#include "check/adversary_registry.hpp"
#include "check/json.hpp"
#include "client.hpp"
#include "micro.hpp"
#include "smr/engine.hpp"
#include "smr/recovery.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace mewc;
namespace json = check::json;

/// Durability decorator: stamps each commit and checkpoint and times the
/// wrapped hook. Callbacks run under the engine's commit lock, in slot
/// order, so the members need no lock of their own; they are read after
/// Engine::finish().
class TimedHook final : public smr::DurabilityHook {
 public:
  explicit TimedHook(smr::DurabilityHook& inner) : inner_(inner) {}

  void on_commit(const smr::SlotRecord& rec, const smr::Ledger& ledger,
                 std::span<const std::uint8_t> batch) override {
    const std::int64_t t = now_ns();
    if (commit_ns.size() <= rec.slot) commit_ns.resize(rec.slot + 1, 0);
    commit_ns[rec.slot] = t;
    inner_.on_commit(rec, ledger, batch);
    last_commit_end_ = now_ns();
    inside_ns += last_commit_end_ - t;
    ++calls;
  }

  void on_checkpoint(const smr::CheckpointRecord& rec,
                     const smr::Ledger& ledger) override {
    const std::int64_t t = now_ns();
    checkpoint_ns.push_back(t - last_commit_end_);
    inner_.on_checkpoint(rec, ledger);
    inside_ns += now_ns() - t;
    ++calls;
  }

  std::vector<std::int64_t> commit_ns;      // by slot
  std::vector<std::int64_t> checkpoint_ns;  // triggering commit -> sealed
  std::int64_t inside_ns = 0;
  std::uint64_t calls = 0;

 private:
  smr::DurabilityHook& inner_;
  std::int64_t last_commit_end_ = 0;
};

/// One engine with its durable store; members point at each other.
struct Rig {
  explicit Rig(smr::EngineConfig config) : durability(&store), hook(durability) {
    config.durability = &hook;
    engine = std::make_unique<smr::Engine>(config);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  smr::Store store;
  smr::Durability durability;
  TimedHook hook;
  std::unique_ptr<smr::Engine> engine;
};

/// The crash adversary of check/crash.cpp's engine cells: pure in (slot,
/// sender), with checkpoints on the odd instance lane.
smr::Ledger::AdversaryFactory crash_adversary(const EngineRunConfig& cfg) {
  return [n = cfg.n, t = cfg.t, f = cfg.f, seed = cfg.seed](
             std::uint64_t slot, ProcessId sender) {
    check::AdversaryParams p;
    p.protocol =
        sender == kNoProcess ? check::Protocol::kStrongBa : check::Protocol::kBb;
    p.n = n;
    p.t = t;
    p.f = f;
    p.instance = 1000 + 2 * slot + (sender == kNoProcess ? 1 : 0);
    p.seed = seed;
    p.sender = sender;
    return check::make_adversary("crash", p);
  };
}

Value proposal(const EngineRunConfig& cfg, std::uint64_t slot) {
  return Value(op_word(cfg.seed, slot, cfg.keys));
}

/// Submits bursts of four slots per worker until every worker has built
/// its trusted setup (one setup-cache miss each); one burst nearly always
/// reaches every worker. Returns the next slot.
std::uint64_t warm_up(smr::Engine& engine, const EngineRunConfig& cfg,
                      const smr::Ledger::AdversaryFactory& adversary) {
  std::uint64_t slot = 0;
  for (int burst = 0; burst < 16; ++burst) {
    for (std::uint32_t w = 0; w < 4 * cfg.workers; ++w, ++slot) {
      engine.submit(proposal(cfg, slot), adversary);
    }
    engine.finish();
    if (engine.stats().setup_cache_misses >= cfg.workers) break;
  }
  return slot;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

json::Array to_array(const std::vector<std::int64_t>& xs) {
  json::Array a;
  a.reserve(xs.size());
  for (const std::int64_t x : xs) a.emplace_back(x);
  return a;
}

}  // namespace

int run_engine(const EngineRunConfig& cfg) {
  smr::EngineConfig base;
  base.n = cfg.n;
  base.t = cfg.t;
  base.backend = ThresholdBackend::kReal;
  base.seed = cfg.seed;
  base.workers = cfg.workers;
  base.queue_capacity = cfg.queue;
  base.checkpoint_every = cfg.checkpoint_every;
  const smr::Ledger::AdversaryFactory adversary = crash_adversary(cfg);

  std::vector<std::int64_t> setup_ns;
  std::unique_ptr<Rig> rig;
  std::uint64_t slot = 0;
  bool warm = true;
  for (std::uint32_t r = 0; r < cfg.setup_repeats; ++r) {
    rig.reset();  // joins the previous engine's workers outside the timing
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>(base);
    slot = warm_up(*rig->engine, cfg, adversary);
    setup_ns.push_back(now_ns() - t0);
    warm = warm && rig->engine->stats().setup_cache_misses == cfg.workers;
  }

  smr::Engine& engine = *rig->engine;
  const std::uint64_t first = slot;
  std::vector<std::int64_t> submit_ns;
  submit_ns.reserve(cfg.ops);
  std::int64_t in_submit = 0;
  const std::int64_t cpu0 = other_threads_cpu_ns();
  const std::int64_t start = now_ns();
  for (; slot < first + cfg.ops; ++slot) {
    const Value v = proposal(cfg, slot);
    const std::int64_t t0 = now_ns();
    engine.submit(v, adversary);
    in_submit += now_ns() - t0;
    submit_ns.push_back(t0);
  }
  engine.finish();
  const std::int64_t end = now_ns();
  const std::int64_t worker_cpu = other_threads_cpu_ns() - cpu0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::vector<std::int64_t> latency_ns;
  std::vector<std::int64_t> commit_ns;
  latency_ns.reserve(cfg.ops);
  for (std::uint64_t s = first; s < slot; ++s) {
    commit_ns.push_back(rig->hook.commit_ns[s]);
    latency_ns.push_back(rig->hook.commit_ns[s] - submit_ns[s - first]);
  }
  const smr::EngineStats st = engine.stats();
  const smr::Ledger& ledger = engine.ledger();

  // The reference: same slots and adversary, ideal backend, one worker.
  smr::EngineConfig ref_config = base;
  ref_config.backend = ThresholdBackend::kSim;
  ref_config.workers = 1;
  smr::Store ref_store;
  smr::Durability ref_durability(&ref_store);
  ref_config.durability = &ref_durability;
  smr::Engine reference(ref_config);
  for (std::uint64_t s = 0; s < slot; ++s) {
    reference.submit(proposal(cfg, s), adversary);
  }
  reference.finish();
  const bool matches =
      reference.ledger().ledger_digest() == ledger.ledger_digest() &&
      reference.ledger().total_words() == ledger.total_words() &&
      ref_durability.kv().digest() == rig->durability.kv().digest() &&
      reference.ledger().checkpoints().size() == ledger.checkpoints().size();

  json::Object o;
  o["setup_ns"] = to_array(setup_ns);
  o["latency_ns"] = to_array(latency_ns);
  o["commit_ns"] = to_array(commit_ns);
  o["checkpoint_ns"] = to_array(rig->hook.checkpoint_ns);
  o["measure_ns"] = end - start;
  o["measured_ops"] = slot - first;
  o["slots_total"] = slot;
  o["warm"] = warm;
  o["reference_matches"] = matches;
  o["healthy"] = ledger.healthy();
  o["ledger_digest"] = hex64(ledger.ledger_digest());
  o["reference_ledger_digest"] = hex64(reference.ledger().ledger_digest());
  o["kv_digest"] = hex64(rig->durability.kv().digest());
  o["total_words"] = ledger.total_words();
  o["committed"] = st.committed;
  o["skipped"] = st.skipped;
  o["fallbacks"] = st.fallbacks;
  o["checkpoints"] = ledger.checkpoints().size();
  o["crypto_pairings"] = st.crypto_pairings;
  o["crypto_memo_hits"] = st.crypto_memo_hits;
  o["max_reorder_depth"] = st.max_reorder_depth;
  o["backpressure_waits"] = st.backpressure_waits;
  o["submit_ns"] = in_submit;
  o["worker_cpu_ns"] = worker_cpu;
  o["workers"] = cfg.workers;
  o["durability_inside_ns"] = rig->hook.inside_ns;
  o["durability_calls"] = rig->hook.calls;
  o["peak_rss_kb"] = ru.ru_maxrss;
  if (cfg.trace) {
    check::CellSpec cell;
    cell.protocol = check::Protocol::kBb;
    cell.n = cfg.n;
    cell.t = cfg.t;
    cell.f = cfg.f;
    cell.adversary = "crash";
    cell.seed = cfg.seed;
    cell.backend = ThresholdBackend::kReal;
    const CodecTiming codec = time_codec(record_payloads({cell}, 4096), 20);
    const PairingTiming pairing = time_pairing(cfg.seed, 2000);
    o["encode_ns"] = codec.encode_ns;
    o["decode_ns"] = codec.decode_ns;
    o["codec_ok"] = codec.ok && codec.messages > 0;
    o["pairing_us"] = pairing.pairing_us;
    o["pairing_ok"] = pairing.bilinear;
  }
  return json::write_file(cfg.out_dir + "/engine.json",
                          json::Value(std::move(o)))
             ? 0
             : 1;
}

}  // namespace perfbench
