// Differential harness pinning real <-> ideal backend equivalence. The real
// backend must be a drop-in: same protocol decisions, same rounds, same word
// counts, same message stream — the ONLY wire bytes allowed to differ are
// the signature/certificate tags (a MAC under the ideal backends, a
// compressed curve point under kReal), which is exactly what
// MessageLog::semantic_digest() masks. Every cell of the DST smoke grid is
// run under both backends and compared field by field, so any divergence
// names the first cell and field that split.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/adversary_registry.hpp"
#include "check/campaign.hpp"
#include "check/crash.hpp"
#include "check/json.hpp"
#include "check/runner.hpp"
#include "crypto/keys.hpp"
#include "smr/engine.hpp"
#include "smr/recovery.hpp"

namespace mewc {
namespace {

using check::CellSpec;
using check::GridSpec;
using check::RunRecord;

GridSpec load_smoke_grid() {
  std::string error;
  const auto v = check::json::read_file(MEWC_GRID_DIR "/smoke.json", &error);
  EXPECT_TRUE(v.has_value()) << error;
  GridSpec grid;
  EXPECT_TRUE(GridSpec::from_json(*v, &grid, &error)) << error;
  return grid;
}

/// Tag-free projection of one decision. Everything except the tag must be
/// bit-identical across backends; the tag is checked only for presence.
std::string decision_key(const WireValue& w) {
  std::ostringstream os;
  os << w.value.raw << '/' << static_cast<int>(w.prov) << '/' << w.aux;
  if (w.sig) os << "/sig:" << w.sig->signer << ':' << w.sig->digest.bits;
  if (w.cert) os << "/cert:" << w.cert->k << ':' << w.cert->digest.bits;
  return os.str();
}

/// Compares the sim and real runs of one cell; appends one line per
/// mismatching field to *out (empty == equivalent).
void compare_runs(const CellSpec& cell, const RunRecord& sim,
                  const RunRecord& real, std::vector<std::string>* out) {
  const std::string where = cell.label();
  auto fail = [&](const std::string& what) { out->push_back(where + ": " + what); };

  if (sim.rounds != real.rounds) fail("rounds diverge");
  if (sim.any_fallback != real.any_fallback) fail("fallback flag diverges");
  if (sim.corrupted != real.corrupted) fail("corruption masks diverge");
  if (sim.decided != real.decided) fail("decided vectors diverge");
  if (sim.signatures_issued != real.signatures_issued) {
    fail("signatures_issued diverges");
  }
  if (sim.meter.words_correct != real.meter.words_correct ||
      sim.meter.messages_correct != real.meter.messages_correct ||
      sim.meter.logical_sigs_correct != real.meter.logical_sigs_correct) {
    fail("word/message/sig meters diverge");
  }
  if (sim.decisions.size() == real.decisions.size()) {
    for (std::size_t i = 0; i < sim.decisions.size(); ++i) {
      if (!sim.decided[i]) continue;
      if (decision_key(sim.decisions[i]) != decision_key(real.decisions[i])) {
        fail("decision of process " + std::to_string(i) + " diverges");
      }
    }
  } else {
    fail("decision vector sizes diverge");
  }

  // Per-message metadata first (cheap, names the offending message), then
  // the masked byte-level fingerprint (catches payload-field divergence the
  // metadata cannot see).
  if (sim.log.messages.size() != real.log.messages.size()) {
    fail("stream lengths diverge");
    return;
  }
  for (std::size_t i = 0; i < sim.log.messages.size(); ++i) {
    const auto& a = sim.log.messages[i];
    const auto& b = real.log.messages[i];
    if (a.from != b.from || a.to != b.to || a.round != b.round ||
        a.kind != b.kind || a.words != b.words || a.correct != b.correct) {
      fail("message " + std::to_string(i) + " metadata diverges (" + a.kind +
           " vs " + b.kind + ")");
      return;
    }
  }
  if (sim.log.semantic_digest() != real.log.semantic_digest()) {
    fail("semantic stream digests diverge (non-tag payload bytes differ)");
  }
}

// Every smoke-grid cell, sim vs real, full transcript comparison. The grid
// is embarrassingly parallel, so the pairs are spread over a worker pool;
// each worker runs both variants of its cell back to back (the pair shares
// nothing, determinism comes from the cell seed alone).
TEST(Differential, RealMatchesSimAcrossSmokeGrid) {
  GridSpec grid = load_smoke_grid();
  grid.backends = {ThresholdBackend::kSim};
  const std::vector<CellSpec> cells = grid.enumerate();
  ASSERT_FALSE(cells.empty());

  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::string> failures;

  const unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      check::RunOptions opts;
      opts.record_messages = true;
      std::vector<std::string> local;
      for (std::size_t i = next.fetch_add(1); i < cells.size();
           i = next.fetch_add(1)) {
        CellSpec cell = cells[i];
        cell.backend = ThresholdBackend::kSim;
        const RunRecord sim = check::run_cell(cell, opts);
        cell.backend = ThresholdBackend::kReal;
        const RunRecord real = check::run_cell(cell, opts);
        compare_runs(cell, sim, real, &local);
      }
      if (!local.empty()) {
        const std::lock_guard<std::mutex> lock(mu);
        failures.insert(failures.end(), local.begin(), local.end());
      }
    });
  }
  for (auto& t : workers) t.join();

  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_TRUE(failures.empty())
      << failures.size() << " of " << cells.size() << " cells diverged";
}

// The sim<->shamir direction rides the same harness: all three backends are
// one equivalence class, not just the pair the tentpole names.
TEST(Differential, ShamirMatchesSimOnWeakBaSlice) {
  GridSpec grid = load_smoke_grid();
  grid.backends = {ThresholdBackend::kSim};
  std::vector<CellSpec> cells = grid.enumerate();
  check::RunOptions opts;
  opts.record_messages = true;
  std::vector<std::string> failures;
  std::size_t compared = 0;
  for (CellSpec cell : cells) {
    // One protocol, first seed per configuration keeps this slice cheap;
    // the full cross product already ran in RealMatchesSimAcrossSmokeGrid.
    if (cell.protocol != check::Protocol::kWeakBa || cell.seed != 1) continue;
    cell.backend = ThresholdBackend::kSim;
    const RunRecord sim = check::run_cell(cell, opts);
    cell.backend = ThresholdBackend::kShamir;
    const RunRecord shamir = check::run_cell(cell, opts);
    compare_runs(cell, sim, shamir, &failures);
    ++compared;
  }
  EXPECT_GT(compared, 0u);
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

// SMR pipeline under both backends: identical kv digests, ledger digests
// and slot outcomes, and the amortization counters prove the real lane did
// its verification through the batch/memo path rather than pairing per
// certificate.
TEST(Differential, EngineKvDigestMatchesAcrossBackends) {
  struct Outcome {
    std::uint64_t kv_digest = 0;
    std::uint64_t ledger_digest = 0;
    std::uint64_t words = 0;
    std::vector<std::uint64_t> values;
    smr::EngineStats stats;
  };
  constexpr std::uint64_t kOps = 48;
  auto run = [&](ThresholdBackend backend) {
    smr::EngineConfig c;
    c.n = 5;
    c.t = 2;
    c.backend = backend;
    c.workers = 4;
    c.checkpoint_every = 8;
    smr::Store store;
    smr::Durability dur(&store);
    c.durability = &dur;
    smr::Engine engine(c);
    std::vector<smr::Command> cmds;
    for (std::uint64_t i = 0; i < kOps; i += 4) {
      cmds.clear();
      for (std::uint64_t j = i; j < i + 4; ++j) {
        cmds.push_back(check::crash_proposal(c.seed, j));
      }
      engine.submit_batch(cmds);
    }
    engine.finish();
    Outcome out;
    out.kv_digest = dur.kv().digest();
    out.ledger_digest = engine.ledger().ledger_digest();
    out.words = engine.ledger().total_words();
    for (const auto& slot : engine.ledger().slots()) {
      out.values.push_back(slot.value.raw);
    }
    out.stats = engine.stats();
    return out;
  };

  const Outcome sim = run(ThresholdBackend::kSim);
  const Outcome real = run(ThresholdBackend::kReal);
  EXPECT_EQ(sim.kv_digest, real.kv_digest);
  EXPECT_EQ(sim.ledger_digest, real.ledger_digest);
  EXPECT_EQ(sim.words, real.words);
  EXPECT_EQ(sim.values, real.values);
  EXPECT_EQ(sim.stats.committed, real.stats.committed);
  EXPECT_EQ(sim.stats.fallbacks, real.stats.fallbacks);

  // Ideal backends never touch the pairing; the real lane must, and the
  // memo must be earning its keep (every BB instance re-verifies the same
  // handful of certificates, so hits should dominate cold pairings).
  EXPECT_EQ(sim.stats.crypto_pairings, 0u);
  EXPECT_EQ(sim.stats.crypto_memo_hits, 0u);
  EXPECT_GT(real.stats.crypto_pairings, 0u);
  EXPECT_GT(real.stats.crypto_memo_hits, 0u);
}

// The engine-real shape: n=9, t=4, three workers, a checkpoint every 8
// slots and a crash adversary (f=2) on every slot and checkpoint, so each
// checkpoint runs Algorithm 5's Dolev-Strong fallback under kReal. The
// checkpoint BAs share the ledger's one cached setup, and the outcome must
// still equal the kSim one-worker reference record for record.
TEST(Differential, FaultedCheckpointsMatchSimReference) {
  constexpr std::uint64_t kSlots = 64;
  constexpr std::uint64_t kSeed = 1;
  const smr::Ledger::AdversaryFactory crash = [](std::uint64_t slot,
                                                 ProcessId sender) {
    check::AdversaryParams p;
    p.protocol =
        sender == kNoProcess ? check::Protocol::kStrongBa : check::Protocol::kBb;
    p.n = 9;
    p.t = 4;
    p.f = 2;
    p.instance = 1000 + 2 * slot + (sender == kNoProcess ? 1 : 0);
    p.seed = kSeed;
    p.sender = sender;
    return check::make_adversary("crash", p);
  };
  struct Outcome {
    std::uint64_t ledger_digest = 0;
    std::uint64_t words = 0;
    std::uint64_t kv_digest = 0;
    std::vector<smr::CheckpointRecord> checkpoints;
    std::uint64_t checkpoint_misses = 0;
    smr::EngineStats stats;
  };
  auto run = [&](ThresholdBackend backend, std::uint32_t workers) {
    smr::EngineConfig c;
    c.n = 9;
    c.t = 4;
    c.seed = kSeed;
    c.backend = backend;
    c.workers = workers;
    c.checkpoint_every = 8;
    smr::Store store;
    smr::Durability dur(&store);
    c.durability = &dur;
    smr::Engine engine(c);
    for (std::uint64_t s = 0; s < kSlots; ++s) {
      engine.submit(check::crash_proposal(kSeed, s).pack(), crash);
    }
    engine.finish();
    Outcome out;
    out.ledger_digest = engine.ledger().ledger_digest();
    out.words = engine.ledger().total_words();
    out.kv_digest = dur.kv().digest();
    out.checkpoints = engine.ledger().checkpoints();
    out.checkpoint_misses = engine.ledger().checkpoint_cache().misses();
    out.stats = engine.stats();
    return out;
  };

  const Outcome sim = run(ThresholdBackend::kSim, 1);
  const Outcome real = run(ThresholdBackend::kReal, 3);
  EXPECT_EQ(sim.ledger_digest, real.ledger_digest);
  EXPECT_EQ(sim.words, real.words);
  EXPECT_EQ(sim.kv_digest, real.kv_digest);
  ASSERT_EQ(real.checkpoints.size(), kSlots / 8);
  ASSERT_EQ(sim.checkpoints.size(), real.checkpoints.size());
  for (std::size_t i = 0; i < sim.checkpoints.size(); ++i) {
    const smr::CheckpointRecord& a = sim.checkpoints[i];
    const smr::CheckpointRecord& b = real.checkpoints[i];
    EXPECT_EQ(a.after_slot, b.after_slot) << "checkpoint " << i;
    EXPECT_EQ(a.ledger_digest, b.ledger_digest) << "checkpoint " << i;
    EXPECT_EQ(a.accepted, b.accepted) << "checkpoint " << i;
    EXPECT_EQ(a.agreement, b.agreement) << "checkpoint " << i;
    EXPECT_EQ(a.words, b.words) << "checkpoint " << i;
    EXPECT_TRUE(b.accepted && b.agreement) << "checkpoint " << i;
  }
  EXPECT_EQ(real.stats.fallbacks, 0u);

  // One trusted setup serves every checkpoint, and its memo carries the
  // fallback's relay certificates across receivers.
  EXPECT_EQ(real.checkpoint_misses, 1u);
  EXPECT_GT(real.stats.checkpoint_pairings, 0u);
  EXPECT_GT(real.stats.checkpoint_memo_hits, real.stats.checkpoint_pairings);
  EXPECT_EQ(sim.stats.checkpoint_pairings, 0u);
}

}  // namespace
}  // namespace mewc
