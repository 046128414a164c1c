// Pipelined SMR engine: determinism across worker counts (ledger and
// durable bytes), checkpoints sealed off the commit lock, setup-cache
// transcript identity, scheduler backpressure bounds, and the driver
// registry the engine (and every tool) dispatches through.
#include "smr/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"
#include "check/adversary_registry.hpp"
#include "check/record.hpp"
#include "smr/recovery.hpp"

namespace mewc::smr {
namespace {

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");

EngineConfig base_config() {
  EngineConfig c;
  c.n = 9;
  c.t = 4;
  c.checkpoint_every = 4;
  c.queue_capacity = 8;
  return c;
}

void drive(Engine& engine, std::uint64_t slots,
           const Ledger::AdversaryFactory& adversary = nullptr) {
  for (std::uint64_t s = 0; s < slots; ++s) {
    engine.submit(Value(100 + s), adversary);
  }
  engine.finish();
}

void expect_meters_identical(const Meter& a, const Meter& b) {
  EXPECT_EQ(a.words_correct, b.words_correct);
  EXPECT_EQ(a.messages_correct, b.messages_correct);
  EXPECT_EQ(a.words_byzantine, b.words_byzantine);
  EXPECT_EQ(a.messages_byzantine, b.messages_byzantine);
  EXPECT_EQ(a.logical_sigs_correct, b.logical_sigs_correct);
  EXPECT_EQ(a.words_by_process, b.words_by_process);
  EXPECT_EQ(a.words_by_round, b.words_by_round);
  EXPECT_EQ(a.words_by_kind(), b.words_by_kind());
}

void expect_ledgers_identical(const Ledger& a, const Ledger& b) {
  EXPECT_EQ(a.ledger_digest(), b.ledger_digest());
  EXPECT_EQ(a.total_words(), b.total_words());
  EXPECT_EQ(a.healthy(), b.healthy());
  ASSERT_EQ(a.slots().size(), b.slots().size());
  for (std::size_t i = 0; i < a.slots().size(); ++i) {
    const SlotRecord& sa = a.slots()[i];
    const SlotRecord& sb = b.slots()[i];
    EXPECT_EQ(sa.slot, sb.slot);
    EXPECT_EQ(sa.proposer, sb.proposer);
    EXPECT_EQ(sa.value.raw, sb.value.raw);
    EXPECT_EQ(sa.skipped, sb.skipped);
    EXPECT_EQ(sa.agreement, sb.agreement);
    EXPECT_EQ(sa.fallback, sb.fallback);
    EXPECT_EQ(sa.words, sb.words);
  }
  ASSERT_EQ(a.checkpoints().size(), b.checkpoints().size());
  for (std::size_t i = 0; i < a.checkpoints().size(); ++i) {
    EXPECT_EQ(a.checkpoints()[i].ledger_digest,
              b.checkpoints()[i].ledger_digest);
    EXPECT_EQ(a.checkpoints()[i].accepted, b.checkpoints()[i].accepted);
    EXPECT_EQ(a.checkpoints()[i].words, b.checkpoints()[i].words);
  }
}

TEST(SmrEngine, BitIdenticalAcrossWorkerCounts) {
  constexpr std::uint64_t kSlots = 18;
  Engine one(base_config());
  drive(one, kSlots);

  for (const std::uint32_t workers : {2u, 8u}) {
    EngineConfig c = base_config();
    c.workers = workers;
    Engine many(c);
    drive(many, kSlots);

    expect_ledgers_identical(one.ledger(), many.ledger());
    expect_meters_identical(one.meter(), many.meter());
    EXPECT_EQ(one.stats().committed, many.stats().committed);
    EXPECT_EQ(one.stats().skipped, many.stats().skipped);
    EXPECT_EQ(one.stats().fallbacks, many.stats().fallbacks);
  }
}

/// The single-threaded ledger an engine with config `c` must reproduce.
Ledger::Config serial_config(const EngineConfig& c) {
  Ledger::Config lc;
  lc.n = c.n;
  lc.t = c.t;
  lc.seed = c.seed;
  lc.checkpoint_every = c.checkpoint_every;
  lc.base_instance = c.base_instance;
  return lc;
}

/// Crash-faults f processes of every slot and every checkpoint (sender
/// kNoProcess, on the odd nonce lane); pure in (slot, sender).
Ledger::AdversaryFactory crash_factory(const EngineConfig& c,
                                       std::uint32_t f) {
  return [n = c.n, t = c.t, seed = c.seed, f](std::uint64_t slot,
                                              ProcessId sender) {
    const bool checkpoint = sender == kNoProcess;
    check::AdversaryParams params;
    params.protocol =
        checkpoint ? check::Protocol::kStrongBa : check::Protocol::kBb;
    params.n = n;
    params.t = t;
    params.f = f;
    params.instance = 1000 + 2 * slot + (checkpoint ? 1 : 0);
    params.seed = seed;
    params.sender = sender;
    return check::make_adversary("crash", params);
  };
}

/// Durability decorator that checks the engine's callback contract:
/// callbacks never overlap, and each checkpoint seals exactly the slots
/// committed before it.
class ContractHook final : public DurabilityHook {
 public:
  explicit ContractHook(DurabilityHook& inner) : inner_(inner) {}

  void on_commit(const SlotRecord& rec, const Ledger& ledger,
                 std::span<const std::uint8_t> batch) override {
    enter();
    committed_.store(rec.slot + 1);
    inner_.on_commit(rec, ledger, batch);
    leave();
  }

  void on_checkpoint(const CheckpointRecord& rec,
                     const Ledger& ledger) override {
    enter();
    if (rec.after_slot != committed_.load()) ++misplaced_checkpoints;
    ++checkpoints;
    inner_.on_checkpoint(rec, ledger);
    leave();
  }

  std::atomic<std::uint64_t> overlaps{0};
  std::atomic<std::uint64_t> misplaced_checkpoints{0};
  std::atomic<std::uint64_t> checkpoints{0};

 private:
  void enter() {
    if (in_flight_.exchange(true)) ++overlaps;
  }
  void leave() { in_flight_.store(false); }

  DurabilityHook& inner_;
  std::atomic<bool> in_flight_{false};
  std::atomic<std::uint64_t> committed_{0};
};

TEST(SmrEngine, MatchesSerialLedgerAppend) {
  constexpr std::uint64_t kSlots = 12;
  for (const std::uint32_t every : {4u, 1u}) {
    for (const bool faulty : {false, true}) {
      SCOPED_TRACE("checkpoint_every=" + std::to_string(every) +
                   (faulty ? " crash f=t" : " fault-free"));
      EngineConfig c = base_config();
      c.workers = 4;
      c.checkpoint_every = every;
      const Ledger::AdversaryFactory adversary =
          faulty ? crash_factory(c, c.t) : nullptr;

      Store engine_store;
      Durability engine_durability(&engine_store);
      ContractHook contract(engine_durability);
      c.durability = &contract;
      Engine engine(c);
      drive(engine, kSlots, adversary);

      Store serial_store;
      Durability serial_durability(&serial_store);
      Ledger::Config lc = serial_config(c);
      lc.durability = &serial_durability;
      Ledger serial(lc);
      for (std::uint64_t s = 0; s < kSlots; ++s) {
        serial.append(Value(100 + s), adversary);
      }

      expect_ledgers_identical(serial, engine.ledger());
      EXPECT_EQ(serial_store.wal, engine_store.wal);
      EXPECT_EQ(serial_store.snapshot, engine_store.snapshot);
      EXPECT_FALSE(engine_store.snapshot.empty());
      EXPECT_EQ(contract.overlaps.load(), 0u);
      EXPECT_EQ(contract.misplaced_checkpoints.load(), 0u);
      EXPECT_EQ(contract.checkpoints.load(), serial.checkpoints().size());
      if (faulty) {
        EXPECT_GT(engine.stats().fallbacks, 0u);
      }
    }
  }
}

TEST(SmrEngine, WorkersKeepRunningWhileCheckpointSeals) {
  // The checkpoint after slot 3 holds its sealing worker until another
  // worker starts slot 4. That happens only if the seal runs off the
  // commit lock; otherwise submit(4) waits for the lock and the gate times
  // out (it does not hang).
  EngineConfig c = base_config();
  c.workers = 3;
  ASSERT_EQ(c.checkpoint_every, 4u);

  std::mutex mu;
  std::condition_variable cv;
  bool sealing = false;
  bool slot4_started = false;
  bool timed_out = false;
  const Ledger::AdversaryFactory gate =
      [&](std::uint64_t slot, ProcessId sender) -> std::unique_ptr<Adversary> {
    std::unique_lock<std::mutex> lock(mu);
    if (sender == kNoProcess) {
      sealing = true;
      cv.notify_all();
      timed_out = !cv.wait_for(lock, std::chrono::seconds(5),
                               [&] { return slot4_started; });
    } else if (slot == 4) {
      slot4_started = true;
      cv.notify_all();
    }
    return nullptr;
  };

  Engine engine(c);
  for (std::uint64_t s = 0; s < 4; ++s) engine.submit(Value(100 + s), gate);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return sealing; });
  }
  engine.submit(Value(104), gate);
  engine.finish();
  EXPECT_FALSE(timed_out);

  Ledger serial(serial_config(c));
  for (std::uint64_t s = 0; s < 5; ++s) serial.append(Value(100 + s));
  expect_ledgers_identical(serial, engine.ledger());
  EXPECT_EQ(engine.ledger().checkpoints().size(), 1u);
}

TEST(SmrEngine, AdversarialSlotsStayDeterministicAndAgree) {
  constexpr std::uint64_t kSlots = 10;
  // Crash-fault every slot: f = t at n = 5 forces the fallback path, the
  // worst case for pipelining (slow instances must not stall commits).
  const Ledger::AdversaryFactory crashes = [](std::uint64_t slot,
                                              ProcessId sender) {
    check::AdversaryParams params;
    params.protocol = check::Protocol::kBb;
    params.n = 5;
    params.t = 2;
    params.f = 2;
    params.instance = 1000 + 2 * slot;
    params.seed = 0x5e7u;
    params.sender = sender;
    return check::make_adversary("crash", params);
  };

  EngineConfig c;
  c.n = 5;
  c.t = 2;
  c.checkpoint_every = 3;
  c.workers = 1;
  Engine one(c);
  drive(one, kSlots, crashes);

  c.workers = 4;
  Engine many(c);
  drive(many, kSlots, crashes);

  EXPECT_TRUE(one.ledger().healthy());
  EXPECT_GT(one.stats().fallbacks, 0u);
  expect_ledgers_identical(one.ledger(), many.ledger());
  expect_meters_identical(one.meter(), many.meter());
}

TEST(SmrEngine, SetupCacheAmortizesKeygen) {
  EngineConfig c = base_config();
  c.workers = 2;
  Engine engine(c);
  drive(engine, 10);
  const EngineStats stats = engine.stats();
  // Hits + misses == instances run; at most one miss per worker for a
  // single (n, t, backend, seed) configuration.
  EXPECT_EQ(stats.setup_cache_hits + stats.setup_cache_misses, 10u);
  EXPECT_LE(stats.setup_cache_misses, 2u);
  EXPECT_GE(stats.setup_cache_hits, 8u);
}

TEST(SmrEngine, ReorderBufferBoundedByAdmissionQueue) {
  EngineConfig c = base_config();
  c.workers = 4;
  c.queue_capacity = 3;
  Engine engine(c);
  drive(engine, 40);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.committed, 40u);
  // submit() blocks while queue_capacity + workers slots are outstanding,
  // so completed-but-uncommitted slots can never exceed that window even
  // when the commit-frontier slot is the slowest instance in flight.
  EXPECT_LE(stats.max_reorder_depth,
            static_cast<std::uint64_t>(c.queue_capacity + c.workers));
}

TEST(SmrEngine, EmptyRunFinishesClean) {
  EngineConfig c = base_config();
  c.workers = 2;
  Engine engine(c);
  engine.finish();
  EXPECT_EQ(engine.stats().committed, 0u);
  EXPECT_TRUE(engine.ledger().healthy());
}

// ---------------------------------------------------------------------------
// Setup cache: cached and fresh families must be indistinguishable.

harness::RunSpec cache_spec(harness::SetupCache* cache,
                            ThresholdBackend backend) {
  harness::RunSpec spec = harness::RunSpec::with(5, 2);
  spec.seed = 0xcafe;
  spec.backend = backend;
  spec.setup_cache = cache;
  return spec;
}

struct TranscriptResult {
  Digest stream;
  std::uint64_t signatures = 0;
  std::uint64_t words = 0;
  bool agreement = false;
};

TranscriptResult weak_ba_transcript(harness::SetupCache* cache,
                                    ThresholdBackend backend) {
  harness::RunSpec spec = cache_spec(cache, backend);
  check::MessageLog log;
  spec.recorder = [&log](const Message& m, bool correct) {
    log.observe(m, correct);
  };
  adv::NullAdversary null_adv;
  harness::RunInputs inputs;
  inputs.values = std::vector<WireValue>(spec.n, WireValue::plain(Value(3)));
  const harness::RunReport report =
      harness::find_driver("weak-ba")->run(spec, inputs, null_adv);
  TranscriptResult res;
  res.stream = log.stream_digest();
  res.signatures = report.signatures_issued;
  res.words = report.meter.words_correct;
  res.agreement = report.agreement();
  return res;
}

/// Cached-vs-fresh transcript identity must hold for every backend — under
/// kReal this additionally proves the verification memos cache values only
/// (a memo that changed a tag or a decision would split the digests).
class SetupCacheBackends
    : public ::testing::TestWithParam<ThresholdBackend> {};

TEST_P(SetupCacheBackends, CachedRunsMatchFreshRunsBitForBit) {
  const ThresholdBackend backend = GetParam();
  const TranscriptResult fresh = weak_ba_transcript(nullptr, backend);

  harness::SetupCache cache;
  const TranscriptResult first = weak_ba_transcript(&cache, backend);
  const TranscriptResult second = weak_ba_transcript(&cache, backend);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  EXPECT_TRUE(fresh.agreement);
  for (const TranscriptResult* r : {&first, &second}) {
    EXPECT_EQ(r->stream.bits, fresh.stream.bits);
    EXPECT_EQ(r->signatures, fresh.signatures);
    EXPECT_EQ(r->words, fresh.words);
    EXPECT_EQ(r->agreement, fresh.agreement);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SetupCacheBackends,
    ::testing::Values(ThresholdBackend::kSim, ThresholdBackend::kShamir,
                      ThresholdBackend::kReal),
    [](const ::testing::TestParamInfo<ThresholdBackend>& info) {
      return std::string(backend_name(info.param));
    });

TEST(SetupCache, DistinctConfigurationsGetDistinctFamilies) {
  harness::SetupCache cache;
  ThresholdFamily& a = cache.family(5, 2, ThresholdBackend::kSim, 1);
  ThresholdFamily& b = cache.family(7, 3, ThresholdBackend::kSim, 1);
  ThresholdFamily& c = cache.family(5, 2, ThresholdBackend::kSim, 2);
  ThresholdFamily& a2 = cache.family(5, 2, ThresholdBackend::kSim, 1);
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(&a, &a2);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 1u);
}

// ---------------------------------------------------------------------------
// Driver registry: the single dispatch surface for tools and check.

TEST(DriverRegistry, AllProtocolsRegisteredWithUniqueNames) {
  const auto& all = harness::drivers();
  EXPECT_EQ(all.size(), 6u);
  std::set<std::string> names;
  for (const harness::ProtocolDriver* d : all) {
    names.insert(d->name());
    EXPECT_EQ(harness::find_driver(d->name()), d);
  }
  EXPECT_EQ(names.size(), all.size());
  for (const char* expected :
       {"bb", "weak-ba", "strong-ba", "fallback", "ds-bb", "ic"}) {
    EXPECT_NE(harness::find_driver(expected), nullptr) << expected;
  }
  EXPECT_EQ(harness::find_driver("nope"), nullptr);
}

TEST(DriverRegistry, TraitsDescribeProtocolShape) {
  EXPECT_TRUE(harness::find_driver("bb")->traits().single_sender);
  EXPECT_TRUE(harness::find_driver("ds-bb")->traits().single_sender);
  EXPECT_TRUE(harness::find_driver("strong-ba")->traits().binary_values);
  EXPECT_TRUE(harness::find_driver("ic")->traits().vector_output);
  EXPECT_FALSE(harness::find_driver("weak-ba")->traits().single_sender);
  // Phase geometry matches the long-standing tool constants.
  EXPECT_EQ(harness::find_driver("bb")->traits().phase_first, 4u);
  EXPECT_EQ(harness::find_driver("bb")->traits().phase_len, 3u);
  EXPECT_EQ(harness::find_driver("weak-ba")->traits().phase_first, 3u);
  EXPECT_EQ(harness::find_driver("weak-ba")->traits().phase_len, 5u);
  EXPECT_EQ(harness::find_driver("weak-ba")->help_round(5), 26u);
}

TEST(DriverRegistry, BuildAndReadHooksReproduceRun) {
  // Hosting the driver's processes by hand — what a distributed replica
  // does for its one local process — must reproduce ProtocolDriver::run.
  const harness::RunSpec spec = harness::RunSpec::with(5, 2);
  harness::RunInputs inputs;
  inputs.values = kBb.prepare(spec.n, Value(7));
  inputs.sender = 4;
  adv::NullAdversary a1;
  const harness::RunReport report = kBb.run(spec, inputs, a1);

  ThresholdFamily family(spec.n, spec.t, spec.backend, spec.seed);
  std::vector<KeyBundle> bundles;
  for (ProcessId p = 0; p < spec.n; ++p) {
    bundles.push_back(family.issue_bundle(p));
  }
  std::vector<std::unique_ptr<IProcess>> processes;
  for (ProcessId p = 0; p < spec.n; ++p) {
    ProtocolContext ctx;
    ctx.id = p;
    ctx.n = spec.n;
    ctx.t = spec.t;
    ctx.instance = spec.instance;
    ctx.crypto = &family;
    ctx.keys = &bundles[p];
    processes.push_back(kBb.make_process(ctx, inputs));
  }
  adv::NullAdversary a2;
  const auto exec = make_executor(ExecutorKind::kLockstep, family,
                                  std::move(bundles), std::move(processes),
                                  a2);
  exec->run(kBb.total_rounds(spec.n, spec.t));

  EXPECT_EQ(report.rounds, kBb.total_rounds(spec.n, spec.t));
  EXPECT_EQ(report.meter.words_correct, exec->meter().words_correct);
  EXPECT_EQ(report.signatures_issued, family.pki().signatures_issued());
  ASSERT_EQ(report.outcomes.size(), spec.n);
  for (ProcessId p = 0; p < spec.n; ++p) {
    ASSERT_TRUE(report.outcomes[p].has_value());
    EXPECT_EQ(*report.outcomes[p], kBb.outcome(exec->process(p)));
  }
  EXPECT_TRUE(report.all_decided());
  EXPECT_EQ(report.decision().value, Value(7));
}

TEST(DriverRegistry, PrepareClampsBinaryProtocols) {
  const auto sba_inputs = harness::find_driver("strong-ba")->prepare(
      3, Value(7));
  for (const WireValue& w : sba_inputs) EXPECT_EQ(w.value.raw, 1u);
  const auto bb_inputs = harness::find_driver("bb")->prepare(3, Value(7));
  for (const WireValue& w : bb_inputs) EXPECT_EQ(w.value.raw, 7u);
}

TEST(RunSpecFactories, BothRouteThroughTheCheckedConstructor) {
  const harness::RunSpec a = harness::RunSpec::for_t(3);
  EXPECT_EQ(a.n, 7u);
  EXPECT_EQ(a.t, 3u);
  const harness::RunSpec b = harness::RunSpec::with(9, 3);
  EXPECT_EQ(b.n, 9u);
  EXPECT_EQ(b.t, 3u);
  EXPECT_EQ(a.describe(), "n=7 t=3 seed=1511");
  harness::RunSpec c = harness::RunSpec::with(5, 2);
  c.backend = ThresholdBackend::kShamir;
  c.codec_roundtrip = true;
  c.seed = 1;
  EXPECT_EQ(c.describe(), "n=5 t=2 seed=1 backend=shamir roundtrip");
}

}  // namespace
}  // namespace mewc::smr
