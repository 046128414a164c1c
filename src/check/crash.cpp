#include "check/crash.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "check/adversary_registry.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "smr/engine.hpp"
#include "smr/wal.hpp"

namespace mewc::check {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Per-slot adversary for both runs. Pure in (slot, sender), so the
/// continuation run rebuilds exactly the adversary the crashed run used.
/// Checkpoint instances arrive with sender == kNoProcess and use the odd
/// nonce lane, mirroring Ledger::prepare_spec/checkpoint_spec.
smr::Ledger::AdversaryFactory slot_adversary(const CrashCellSpec& cell) {
  if (cell.adversary == "none" || cell.f == 0) return nullptr;
  return [cell](std::uint64_t slot, ProcessId sender) {
    AdversaryParams params;
    params.protocol =
        sender == kNoProcess ? Protocol::kStrongBa : Protocol::kBb;
    params.n = cell.n;
    params.t = cell.t;
    params.f = cell.f;
    params.instance = 1000 + 2 * slot + (sender == kNoProcess ? 1 : 0);
    params.seed = cell.seed;
    params.sender = sender;
    return make_adversary(cell.adversary, params);
  };
}

smr::EngineConfig engine_config(const CrashCellSpec& cell,
                                smr::DurabilityHook* hook) {
  smr::EngineConfig c;
  c.n = cell.n;
  c.t = cell.t;
  c.seed = cell.seed;
  c.workers = cell.workers;
  c.queue_capacity = 8;
  c.checkpoint_every = cell.checkpoint_every;
  c.durability = hook;
  return c;
}

smr::Ledger::Config ledger_config(const CrashCellSpec& cell) {
  smr::Ledger::Config c;
  c.n = cell.n;
  c.t = cell.t;
  c.seed = cell.seed;
  c.checkpoint_every = cell.checkpoint_every;
  return c;
}

}  // namespace

const char* tear_name(TearMode mode) {
  switch (mode) {
    case TearMode::kNone:
      return "none";
    case TearMode::kTruncate:
      return "truncate";
    case TearMode::kCorrupt:
      return "corrupt";
  }
  return "?";
}

std::optional<TearMode> parse_tear(std::string_view name) {
  if (name == "none") return TearMode::kNone;
  if (name == "truncate") return TearMode::kTruncate;
  if (name == "corrupt") return TearMode::kCorrupt;
  return std::nullopt;
}

std::string CrashCellSpec::label() const {
  std::string s = "crash n=" + std::to_string(n) + " t=" + std::to_string(t) +
                  " f=" + std::to_string(f) + " adv=" + adversary +
                  " slots=" + std::to_string(slots) +
                  " cp=" + std::to_string(checkpoint_every) +
                  " crash@" + std::to_string(crash_slot) +
                  (after_checkpoint ? "+cp" : "") +
                  (mid_snapshot ? "+snap" : "") +
                  " workers=" + std::to_string(workers) +
                  " tear=" + tear_name(tear) + ":" +
                  std::to_string(tear_seed) + " seed=" + std::to_string(seed);
  return s;
}

smr::Command crash_proposal(std::uint64_t seed, std::uint64_t slot) {
  Rng rng(hash_combine(mix64(seed ^ 0xc4a5), slot));
  const std::uint32_t key = static_cast<std::uint32_t>(rng.below(48));
  const std::uint64_t arg = rng.below(1u << 20);
  switch (rng.below(4)) {
    case 0:
    case 1:
      return smr::Command::put(key, arg);
    case 2:
      return smr::Command::add(key, arg);
    default:
      return smr::Command::erase(key);
  }
}

CrashRunRecord run_crash_cell(const CrashCellSpec& cell) {
  CrashRunRecord rec;
  rec.cell = cell;
  const smr::Ledger::AdversaryFactory adversary = slot_adversary(cell);

  // -------------------------------------------------------------------------
  // Reference: the uninterrupted run every crash-run metric is held against.
  smr::Store ref_store;
  smr::Durability ref_dur(&ref_store);
  {
    smr::Engine engine(engine_config(cell, &ref_dur));
    for (std::uint64_t s = 0; s < cell.slots; ++s) {
      engine.submit(crash_proposal(cell.seed, s).pack(), adversary);
    }
    engine.finish();
    rec.ref_digest = engine.ledger().ledger_digest();
    rec.ref_total_words = engine.ledger().total_words();
    rec.ref_checkpoints = engine.ledger().checkpoints().size();
    rec.ref_healthy = engine.ledger().healthy();
    rec.ref_slots = engine.ledger().slots();
  }
  rec.ref_kv_digest = ref_dur.kv().digest();
  rec.ref_wal = ref_store.wal;

  // -------------------------------------------------------------------------
  // Crash run, phase 1: same workload, but the durability hook dies at the
  // crash slot. Instances past the crash may still run in-memory (workers
  // in flight when the process died); none of that becomes durable. The
  // engine and hook are then discarded — only `store` survives the crash.
  smr::Store store;
  {
    smr::CrashPlan plan;
    plan.crash_slot = cell.crash_slot;
    plan.after_checkpoint = cell.after_checkpoint;
    plan.mid_snapshot = cell.mid_snapshot;
    smr::Durability dur(&store, plan);
    smr::Engine engine(engine_config(cell, &dur));
    for (std::uint64_t s = 0; s < cell.slots; ++s) {
      engine.submit(crash_proposal(cell.seed, s).pack(), adversary);
    }
    engine.finish();
  }

  // Tear the last durable WAL record at a seeded byte offset: the write
  // that was in flight when the process died.
  if (cell.tear != TearMode::kNone && !store.wal.empty()) {
    const smr::wal::ScanResult scanned = smr::wal::scan(store.wal);
    if (!scanned.records.empty()) {
      const std::size_t last = scanned.records.back().offset;
      const std::size_t len = store.wal.size() - last;
      rec.torn_record_offset = last;
      rec.tear_offset = static_cast<std::size_t>(
          Rng(hash_combine(mix64(cell.seed ^ 0x7ea5), cell.tear_seed))
              .below(len));
      if (cell.tear == TearMode::kTruncate) {
        store.wal.resize(last + rec.tear_offset);
      } else {
        store.wal[last + rec.tear_offset] ^= 0x5a;
      }
      rec.tear_applied = true;
    }
  }

  // Tear the snapshot the crash interrupted: the non-atomic overwrite had
  // already destroyed the old snapshot, so only a prefix of the new cut
  // survives (offset 0 = nothing at all). The WAL tear above is
  // independent — a real crash tears whichever writes were in flight.
  if (cell.mid_snapshot && !store.snapshot.empty()) {
    rec.snapshot_tear_offset = static_cast<std::size_t>(
        Rng(hash_combine(mix64(cell.seed ^ 0x54a9), cell.tear_seed))
            .below(store.snapshot.size()));
    store.snapshot.resize(rec.snapshot_tear_offset);
    rec.snapshot_torn = true;
  }

  // -------------------------------------------------------------------------
  // Crash run, phase 2: recover from the (mutilated) store and continue the
  // workload to the same horizon as the reference.
  {
    smr::Recovered recovered = smr::recover(ledger_config(cell), store);
    rec.recovery = recovered.stats;
    rec.recovered_slots = recovered.state.slots.size();
    rec.recovered_digest =
        smr::Ledger::replay_digest(cell.seed, recovered.state.slots);

    smr::Durability dur(&store);
    dur.reset_kv(recovered.kv);
    smr::Engine engine(engine_config(cell, &dur));
    engine.restore(std::move(recovered.state), adversary);
    for (std::uint64_t s = rec.recovered_slots; s < cell.slots; ++s) {
      engine.submit(crash_proposal(cell.seed, s).pack(), adversary);
    }
    engine.finish();
    rec.final_digest = engine.ledger().ledger_digest();
    rec.final_total_words = engine.ledger().total_words();
    rec.final_checkpoints = engine.ledger().checkpoints().size();
    rec.final_healthy = engine.ledger().healthy();
    rec.final_kv_digest = dur.kv().digest();
  }
  rec.final_wal = store.wal;

  // -------------------------------------------------------------------------
  // Catch-up probe: a fresh replica syncing from the reference replica's
  // store must reach the reference state without running any consensus.
  if (!ref_store.snapshot.empty()) {
    rec.catchup_attempted = true;
    const smr::CaughtUp caught = smr::catch_up(ledger_config(cell), ref_store);
    rec.catchup = caught.stats;
    rec.catchup_digest =
        smr::Ledger::replay_digest(cell.seed, caught.state.slots);
    rec.catchup_kv_digest = caught.kv.digest();
  }
  return rec;
}

std::vector<Violation> check_crash_run(const CrashRunRecord& rec) {
  std::vector<Violation> out;
  const auto violate = [&](const std::string& checker,
                           const std::string& detail) {
    out.push_back({checker, detail});
  };

  // crash-prefix: what recovery trusts must be a verified prefix of what
  // the uninterrupted run committed — no partial slot, no fabricated slot.
  if (rec.recovered_slots > rec.ref_slots.size()) {
    violate("crash-prefix",
            "recovered " + std::to_string(rec.recovered_slots) +
                " slots, reference committed only " +
                std::to_string(rec.ref_slots.size()));
  } else {
    const std::vector<smr::SlotRecord> prefix(
        rec.ref_slots.begin(),
        rec.ref_slots.begin() +
            static_cast<std::ptrdiff_t>(rec.recovered_slots));
    const std::uint64_t want =
        smr::Ledger::replay_digest(rec.cell.seed, prefix);
    if (want != rec.recovered_digest) {
      violate("crash-prefix",
              "recovered digest " + hex64(rec.recovered_digest) +
                  " != reference prefix digest " + hex64(want) + " at slot " +
                  std::to_string(rec.recovered_slots) +
                  " (partial or diverged slot survived recovery)");
    }
  }

  // crash-digest: the continued run ends bit-identical to the reference.
  if (rec.final_digest != rec.ref_digest) {
    violate("crash-digest", "final ledger digest " + hex64(rec.final_digest) +
                                " != reference " + hex64(rec.ref_digest));
  }

  // crash-kv: the state machine agrees too.
  if (rec.final_kv_digest != rec.ref_kv_digest) {
    violate("crash-kv", "final kv digest " + hex64(rec.final_kv_digest) +
                            " != reference " + hex64(rec.ref_kv_digest));
  }

  // crash-meter: word totals and checkpoint stream are crash-invariant.
  if (rec.final_total_words != rec.ref_total_words) {
    violate("crash-meter",
            "total words " + std::to_string(rec.final_total_words) +
                " != reference " + std::to_string(rec.ref_total_words));
  }
  if (rec.final_checkpoints != rec.ref_checkpoints) {
    violate("crash-meter",
            "checkpoints " + std::to_string(rec.final_checkpoints) +
                " != reference " + std::to_string(rec.ref_checkpoints));
  }

  // crash-wal: the durable bytes converge to the reference's, bit for bit.
  if (rec.final_wal != rec.ref_wal) {
    violate("crash-wal",
            "final WAL (" + std::to_string(rec.final_wal.size()) +
                " bytes) != reference WAL (" +
                std::to_string(rec.ref_wal.size()) + " bytes)");
  }

  // crash-health: recovery must not flip the health verdict either way.
  if (rec.final_healthy != rec.ref_healthy) {
    violate("crash-health",
            std::string("final healthy=") +
                (rec.final_healthy ? "true" : "false") + " != reference " +
                (rec.ref_healthy ? "true" : "false"));
  }

  // crash-catchup: certified state sync reproduces the reference state.
  if (rec.catchup_attempted) {
    if (!rec.catchup.ok || !rec.catchup.cert_ok) {
      violate("crash-catchup",
              "catch-up from the reference store was rejected");
    } else if (rec.catchup_digest != rec.ref_digest ||
               rec.catchup_kv_digest != rec.ref_kv_digest) {
      violate("crash-catchup",
              "caught-up digest " + hex64(rec.catchup_digest) + "/kv " +
                  hex64(rec.catchup_kv_digest) + " != reference " +
                  hex64(rec.ref_digest) + "/kv " + hex64(rec.ref_kv_digest));
    }
  }
  return out;
}

std::vector<Violation> crash_violations_of(const CrashCellSpec& cell) {
  return check_crash_run(run_crash_cell(cell));
}

// ---------------------------------------------------------------------------
// Grid + campaign.
// ---------------------------------------------------------------------------

std::vector<CrashCellSpec> CrashGridSpec::enumerate() const {
  std::vector<CrashCellSpec> cells;
  for (const GridSize& size : sizes) {
    const std::uint32_t n = size.n == 0 ? n_for_t(size.t) : size.n;
    for (const std::uint64_t slots : slot_counts) {
      for (const std::uint32_t cadence : cadences) {
        for (const std::uint64_t crash_slot : crash_slots) {
          if (crash_slot >= slots) continue;
          for (const std::uint32_t workers : worker_counts) {
            for (const std::string& adv : adversaries) {
              for (const std::uint32_t f : fs) {
                if (f > size.t) continue;
                for (const std::uint64_t seed : seeds) {
                  for (const TearMode tear : tears) {
                    for (const std::uint64_t tear_seed : tear_seeds) {
                      for (const bool after_cp : after_checkpoint) {
                        for (const bool mid_snap : mid_snapshot) {
                          // mid_snapshot subsumes after_checkpoint (the
                          // checkpoint record is durable in both); skip
                          // the redundant combined cell.
                          if (after_cp && mid_snap) continue;
                          CrashCellSpec cell;
                          cell.n = n;
                          cell.t = size.t;
                          cell.f = f;
                          cell.adversary = adv;
                          cell.slots = slots;
                          cell.checkpoint_every = cadence;
                          cell.crash_slot = crash_slot;
                          cell.workers = workers;
                          cell.seed = seed;
                          cell.tear = tear;
                          cell.tear_seed = tear_seed;
                          cell.after_checkpoint = after_cp;
                          cell.mid_snapshot = mid_snap;
                          cells.push_back(std::move(cell));
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

bool CrashGridSpec::from_json(const json::Value& v, CrashGridSpec* out,
                              std::string* error) {
  if (!v.is_object()) return fail(error, "crash grid must be a JSON object");
  CrashGridSpec grid;

  const auto& sizes = v["sizes"];
  if (!sizes.is_array() || sizes.as_array().empty()) {
    return fail(error, "crash grid.sizes must be a non-empty array of {n?, t}");
  }
  for (const auto& s : sizes.as_array()) {
    if (!s.is_object() || !s["t"].is_number()) {
      return fail(error, "each crash grid size needs a numeric t");
    }
    GridSize size;
    size.t = static_cast<std::uint32_t>(s["t"].as_u64());
    size.n = static_cast<std::uint32_t>(s["n"].as_u64());
    if (size.t == 0) return fail(error, "crash grid size t must be >= 1");
    if (size.n != 0 && size.n < 2 * size.t + 1) {
      return fail(error, "crash grid size n must satisfy n >= 2t+1");
    }
    grid.sizes.push_back(size);
  }

  const auto u32_list = [&](const char* key, std::vector<std::uint32_t>* dst,
                            std::uint32_t min) {
    if (v[key].is_null()) return true;
    dst->clear();
    for (const auto& e : v[key].as_array()) {
      dst->push_back(static_cast<std::uint32_t>(e.as_u64()));
      if (dst->back() < min) return false;
    }
    return !dst->empty();
  };
  const auto u64_list = [&](const char* key, std::vector<std::uint64_t>* dst) {
    if (v[key].is_null()) return true;
    dst->clear();
    for (const auto& e : v[key].as_array()) dst->push_back(e.as_u64());
    return !dst->empty();
  };

  if (!u64_list("slots", &grid.slot_counts) ||
      std::any_of(grid.slot_counts.begin(), grid.slot_counts.end(),
                  [](std::uint64_t s) { return s == 0; })) {
    return fail(error, "crash grid.slots must be a non-empty array of >= 1");
  }
  if (!u32_list("cadences", &grid.cadences, 1)) {
    return fail(error, "crash grid.cadences must be non-empty, all >= 1");
  }
  if (!u64_list("crash_slots", &grid.crash_slots)) {
    return fail(error, "crash grid.crash_slots must not be empty");
  }
  if (!u32_list("workers", &grid.worker_counts, 1)) {
    return fail(error, "crash grid.workers must be non-empty, all >= 1");
  }
  if (!u32_list("fs", &grid.fs, 0)) {
    return fail(error, "crash grid.fs must not be empty");
  }
  if (!u64_list("seeds", &grid.seeds)) {
    return fail(error, "crash grid.seeds must not be empty");
  }
  if (!u64_list("tear_seeds", &grid.tear_seeds)) {
    return fail(error, "crash grid.tear_seeds must not be empty");
  }

  if (!v["adversaries"].is_null()) {
    grid.adversaries.clear();
    for (const auto& a : v["adversaries"].as_array()) {
      if (!a.is_string()) return fail(error, "adversary names are strings");
      const auto& names = adversary_names();
      if (a.as_string() != "none" &&
          std::find(names.begin(), names.end(), a.as_string()) ==
              names.end()) {
        return fail(error, "unknown adversary '" + a.as_string() +
                               "' (expected none|" +
                               adversary_names_joined() + ")");
      }
      grid.adversaries.push_back(a.as_string());
    }
    if (grid.adversaries.empty()) {
      return fail(error, "crash grid.adversaries must not be empty");
    }
  }

  if (!v["tears"].is_null()) {
    grid.tears.clear();
    for (const auto& tv : v["tears"].as_array()) {
      const auto tear =
          tv.is_string() ? parse_tear(tv.as_string()) : std::nullopt;
      if (!tear) {
        return fail(error, "unknown tear mode (expected none|truncate|corrupt)");
      }
      grid.tears.push_back(*tear);
    }
    if (grid.tears.empty()) {
      return fail(error, "crash grid.tears must not be empty");
    }
  }

  if (!v["after_checkpoint"].is_null()) {
    grid.after_checkpoint.clear();
    for (const auto& b : v["after_checkpoint"].as_array()) {
      grid.after_checkpoint.push_back(b.as_bool());
    }
    if (grid.after_checkpoint.empty()) {
      return fail(error, "crash grid.after_checkpoint must not be empty");
    }
  }

  if (!v["mid_snapshot"].is_null()) {
    grid.mid_snapshot.clear();
    for (const auto& b : v["mid_snapshot"].as_array()) {
      grid.mid_snapshot.push_back(b.as_bool());
    }
    if (grid.mid_snapshot.empty()) {
      return fail(error, "crash grid.mid_snapshot must not be empty");
    }
  }

  *out = std::move(grid);
  return true;
}

const CrashCellResult* CrashCampaignReport::first_failure() const {
  for (const auto& r : results) {
    if (!r.passed()) return &r;
  }
  return nullptr;
}

json::Value CrashCampaignReport::to_json() const {
  json::Object root;
  root["cells_total"] = json::Value(cells_total);
  root["cells_passed"] = json::Value(cells_passed);
  root["cells_failed"] = json::Value(cells_failed());

  // Recovery-path exercise summary: how often each lane actually ran.
  std::uint64_t used_snapshot = 0;
  std::uint64_t truncated_cells = 0;
  std::uint64_t bytes_truncated = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t checkpoints_completed = 0;
  std::uint64_t catchup_words = 0;
  for (const auto& r : results) {
    used_snapshot += r.used_snapshot ? 1 : 0;
    truncated_cells += r.wal_bytes_truncated > 0 ? 1 : 0;
    bytes_truncated += r.wal_bytes_truncated;
    records_replayed += r.records_replayed;
    checkpoints_completed += r.checkpoint_completed ? 1 : 0;
    catchup_words += r.catchup_words;
  }
  json::Object recovery;
  recovery["cells_using_snapshot"] = json::Value(used_snapshot);
  recovery["cells_truncating_wal"] = json::Value(truncated_cells);
  recovery["wal_bytes_truncated"] = json::Value(bytes_truncated);
  recovery["wal_records_replayed"] = json::Value(records_replayed);
  recovery["pending_checkpoints_completed"] =
      json::Value(checkpoints_completed);
  recovery["catchup_words_transferred"] = json::Value(catchup_words);
  root["recovery"] = json::Value(std::move(recovery));

  json::Array failures;
  for (const auto& r : results) {
    if (r.passed()) continue;
    json::Object f;
    f["cell"] = json::Value(r.cell.label());
    json::Array vs;
    for (const auto& v : r.violations) {
      json::Object vo;
      vo["checker"] = json::Value(v.checker);
      vo["detail"] = json::Value(v.detail);
      vs.push_back(json::Value(std::move(vo)));
    }
    f["violations"] = json::Value(std::move(vs));
    failures.push_back(json::Value(std::move(f)));
  }
  root["failures"] = json::Value(std::move(failures));
  return json::Value(std::move(root));
}

CrashCampaignReport run_crash_campaign(
    const CrashGridSpec& grid, unsigned jobs,
    const std::function<void(const CrashCellResult&)>& on_cell) {
  const std::vector<CrashCellSpec> cells = grid.enumerate();

  CrashCampaignReport report;
  report.results.resize(cells.size());
  report.cells_total = cells.size();

  std::atomic<std::size_t> next{0};
  std::mutex progress_mutex;
  const auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cells.size()) return;
      const CrashRunRecord record = run_crash_cell(cells[i]);
      CrashCellResult& result = report.results[i];
      result.cell = cells[i];
      result.violations = check_crash_run(record);
      result.used_snapshot = record.recovery.used_snapshot;
      result.records_replayed = record.recovery.records_replayed;
      result.wal_bytes_truncated = record.recovery.wal_bytes_truncated;
      result.checkpoint_completed = record.recovery.checkpoint_pending;
      result.catchup_words = record.catchup.words_transferred;
      if (on_cell) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        on_cell(result);
      }
    }
  };

  unsigned threads = jobs != 0 ? jobs : std::thread::hardware_concurrency();
  threads = std::max(1u, std::min<unsigned>(
                             threads, static_cast<unsigned>(cells.size())));
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  for (const auto& r : report.results) {
    report.cells_passed += r.passed() ? 1 : 0;
  }
  return report;
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

namespace {

/// Candidate moves, larger reductions first; each strictly reduces the
/// cell so the greedy loop terminates.
std::vector<CrashCellSpec> crash_candidates(const CrashCellSpec& cell) {
  std::vector<CrashCellSpec> out;
  const auto push = [&](CrashCellSpec c) { out.push_back(std::move(c)); };

  // Fewer slots: the run only needs to outlive the crash by one slot.
  if (cell.slots > cell.crash_slot + 1) {
    CrashCellSpec c = cell;
    c.slots = cell.crash_slot + 1;
    push(c);
  }
  // Earlier crash: bisect, then decrement.
  if (cell.crash_slot >= 2) {
    CrashCellSpec c = cell;
    c.crash_slot = cell.crash_slot / 2;
    push(c);
  }
  if (cell.crash_slot >= 1) {
    CrashCellSpec c = cell;
    c.crash_slot = cell.crash_slot - 1;
    push(c);
  }
  // Smaller system: drop t (with the matching minimal n), keep f legal.
  if (cell.t >= 2) {
    CrashCellSpec c = cell;
    c.t = cell.t - 1;
    c.n = n_for_t(c.t);
    c.f = std::min(cell.f, c.t);
    push(c);
  }
  // Narrow a wide system toward n = 2t+1 without touching t.
  if (cell.n >= 2 * cell.t + 3) {
    CrashCellSpec c = cell;
    c.n = cell.n - 2;
    push(c);
  }
  // One worker: drop the pipeline from the repro if it is irrelevant.
  if (cell.workers > 1) {
    CrashCellSpec c = cell;
    c.workers = 1;
    push(c);
  }
  // Tighter checkpoint cadence.
  if (cell.checkpoint_every > 1) {
    CrashCellSpec c = cell;
    c.checkpoint_every = 1;
    push(c);
  }
  // Smaller corruption budget.
  if (cell.f >= 2) {
    CrashCellSpec c = cell;
    c.f = cell.f / 2;
    push(c);
  }
  if (cell.f >= 1) {
    CrashCellSpec c = cell;
    c.f = cell.f - 1;
    push(c);
  }
  // Simpler tear (corrupt -> truncate) and the plain crash variant.
  if (cell.tear == TearMode::kCorrupt) {
    CrashCellSpec c = cell;
    c.tear = TearMode::kTruncate;
    push(c);
  }
  if (cell.after_checkpoint) {
    CrashCellSpec c = cell;
    c.after_checkpoint = false;
    push(c);
  }
  if (cell.mid_snapshot) {
    CrashCellSpec c = cell;
    c.mid_snapshot = false;
    push(c);
  }
  // Strictly smaller seeds only, so seed moves cannot cycle.
  for (const std::uint64_t s :
       {std::uint64_t{1}, cell.seed / 2, cell.seed - 1}) {
    if (s < cell.seed) {
      CrashCellSpec c = cell;
      c.seed = s;
      push(c);
    }
  }
  for (const std::uint64_t s :
       {std::uint64_t{0}, cell.tear_seed / 2, cell.tear_seed - 1}) {
    if (cell.tear_seed > 0 && s < cell.tear_seed) {
      CrashCellSpec c = cell;
      c.tear_seed = s;
      push(c);
    }
  }
  return out;
}

bool crash_fails_same(const CrashCellSpec& cell, const std::string& checker) {
  const auto violations = crash_violations_of(cell);
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.checker == checker; });
}

}  // namespace

CrashShrinkResult shrink_crash_failure(const CrashCellSpec& failing,
                                       std::uint32_t max_runs) {
  CrashShrinkResult result;
  result.minimal = failing;

  if (const auto vs = crash_violations_of(failing); !vs.empty()) {
    result.checker = vs.front().checker;
  }
  result.runs = 1;
  if (result.checker.empty()) return result;  // not actually failing

  bool progressed = true;
  while (progressed && result.runs < max_runs) {
    progressed = false;
    for (const CrashCellSpec& candidate : crash_candidates(result.minimal)) {
      if (result.runs >= max_runs) break;
      ++result.runs;
      if (crash_fails_same(candidate, result.checker)) {
        result.minimal = candidate;
        ++result.steps;
        progressed = true;
        break;  // restart from the reduced cell
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Replay files.
// ---------------------------------------------------------------------------

json::Value CrashReplay::to_json() const {
  json::Object cell_json;
  cell_json["n"] = json::Value(cell.n);
  cell_json["t"] = json::Value(cell.t);
  cell_json["f"] = json::Value(cell.f);
  cell_json["adversary"] = json::Value(cell.adversary);
  cell_json["slots"] = json::Value(cell.slots);
  cell_json["checkpoint_every"] = json::Value(cell.checkpoint_every);
  cell_json["crash_slot"] = json::Value(cell.crash_slot);
  cell_json["workers"] = json::Value(cell.workers);
  cell_json["seed"] = json::Value(cell.seed);
  cell_json["tear"] = json::Value(tear_name(cell.tear));
  cell_json["tear_seed"] = json::Value(cell.tear_seed);
  cell_json["after_checkpoint"] = json::Value(cell.after_checkpoint);
  cell_json["mid_snapshot"] = json::Value(cell.mid_snapshot);

  json::Array expected_json;
  for (const auto& v : expected) {
    json::Object vo;
    vo["checker"] = json::Value(v.checker);
    vo["detail"] = json::Value(v.detail);
    expected_json.push_back(json::Value(std::move(vo)));
  }

  json::Object root;
  root["mewc_crash_replay"] = json::Value(1);
  root["cell"] = json::Value(std::move(cell_json));
  root["violations"] = json::Value(std::move(expected_json));
  return json::Value(std::move(root));
}

bool CrashReplay::from_json(const json::Value& v, CrashReplay* out,
                            std::string* error) {
  if (v["mewc_crash_replay"].as_u64() != 1) {
    return fail(error,
                "not a mewc crash replay file (missing mewc_crash_replay: 1)");
  }
  const auto& c = v["cell"];
  if (!c.is_object()) return fail(error, "crash replay.cell must be an object");

  CrashReplay replay;
  replay.cell.n = static_cast<std::uint32_t>(c["n"].as_u64());
  replay.cell.t = static_cast<std::uint32_t>(c["t"].as_u64());
  replay.cell.f = static_cast<std::uint32_t>(c["f"].as_u64());
  replay.cell.adversary = c["adversary"].as_string();
  replay.cell.slots = c["slots"].as_u64();
  replay.cell.checkpoint_every =
      static_cast<std::uint32_t>(c["checkpoint_every"].as_u64());
  replay.cell.crash_slot = c["crash_slot"].as_u64();
  replay.cell.workers = static_cast<std::uint32_t>(c["workers"].as_u64(1));
  replay.cell.seed = c["seed"].as_u64();
  const auto tear = parse_tear(c["tear"].is_string() ? c["tear"].as_string()
                                                     : "truncate");
  if (!tear) return fail(error, "unknown tear mode in crash replay cell");
  replay.cell.tear = *tear;
  replay.cell.tear_seed = c["tear_seed"].as_u64();
  replay.cell.after_checkpoint = c["after_checkpoint"].as_bool();
  replay.cell.mid_snapshot = c["mid_snapshot"].as_bool();

  if (replay.cell.t == 0 || replay.cell.n < 2 * replay.cell.t + 1) {
    return fail(error, "crash replay cell needs t >= 1 and n >= 2t+1");
  }
  if (replay.cell.slots == 0 ||
      replay.cell.crash_slot >= replay.cell.slots) {
    return fail(error, "crash replay cell needs crash_slot < slots");
  }
  if (replay.cell.workers == 0) {
    return fail(error, "crash replay cell needs workers >= 1");
  }
  if (replay.cell.f > replay.cell.t) {
    return fail(error, "crash replay cell needs f <= t");
  }
  if (replay.cell.adversary != "none") {
    const auto& names = adversary_names();
    if (std::find(names.begin(), names.end(), replay.cell.adversary) ==
        names.end()) {
      return fail(error, "unknown adversary in crash replay cell");
    }
  }

  for (const auto& vj : v["violations"].as_array()) {
    replay.expected.push_back(
        {vj["checker"].as_string(), vj["detail"].as_string()});
  }

  *out = std::move(replay);
  return true;
}

bool CrashReplay::save(const std::string& path) const {
  return json::write_file(path, to_json());
}

bool CrashReplay::load(const std::string& path, CrashReplay* out,
                       std::string* error) {
  const auto v = json::read_file(path, error);
  if (!v) return false;
  return from_json(*v, out, error);
}

}  // namespace mewc::check
