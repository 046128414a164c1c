// EventExecutor unit tests. The full bit-identity contract is pinned over
// the DST smoke grid in tests/check/executor_equivalence_test.cpp; this
// file covers the fast paths and the one shape the grid cannot express:
// hosted-subset executors closing rounds against each other over a hub,
// which is the in-process twin of the `mewc_node` TCP deployment.
#include "sim/event_executor.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "ba/adversaries/adversaries.hpp"
#include "ba/bb/bb.hpp"
#include "ba/harness.hpp"
#include "net/loopback.hpp"

namespace mewc {
namespace {

harness::RunSpec spec_for(ExecutorKind kind) {
  harness::RunSpec spec = harness::RunSpec::for_t(2);  // n = 5
  spec.seed = 1234;
  spec.executor = kind;
  return spec;
}

TEST(EventExecutor, HarnessRunMatchesLockstep) {
  const harness::ProtocolDriver* driver = harness::find_driver("weak-ba");
  ASSERT_NE(driver, nullptr);
  harness::RunInputs inputs;
  inputs.values = driver->prepare(5, Value(9));

  adv::NullAdversary adv_lock;
  const harness::RunReport lock =
      driver->run(spec_for(ExecutorKind::kLockstep), inputs, adv_lock);
  adv::NullAdversary adv_event;
  const harness::RunReport event =
      driver->run(spec_for(ExecutorKind::kEvent), inputs, adv_event);

  EXPECT_EQ(lock.outcomes, event.outcomes);
  EXPECT_EQ(lock.decision().value.raw, event.decision().value.raw);
  EXPECT_EQ(lock.meter.words_correct, event.meter.words_correct);
  EXPECT_EQ(lock.meter.messages_correct, event.meter.messages_correct);
  EXPECT_EQ(lock.meter.words_by_process, event.meter.words_by_process);
  EXPECT_EQ(lock.signatures_issued, event.signatures_issued);
}

TEST(EventExecutor, CorruptionMatchesLockstep) {
  const harness::ProtocolDriver* driver = harness::find_driver("bb");
  ASSERT_NE(driver, nullptr);
  harness::RunInputs inputs;
  inputs.values = driver->prepare(5, Value(9));
  inputs.sender = 4;

  const auto run = [&](ExecutorKind kind) {
    adv::CrashAdversary adv({0, 1});  // crash 2 low ids from round 1
    return driver->run(spec_for(kind), inputs, adv);
  };
  const harness::RunReport lock = run(ExecutorKind::kLockstep);
  const harness::RunReport event = run(ExecutorKind::kEvent);
  EXPECT_EQ(lock.corrupted, event.corrupted);
  EXPECT_EQ(lock.outcomes, event.outcomes);
  EXPECT_EQ(lock.meter.words_byzantine, event.meter.words_byzantine);
}

// Three single-process executors, one per thread, run one BB instance over
// a LoopbackHub with watermark round closure — the exact shape `mewc_node`
// runs over TCP, minus the sockets. Every endpoint must reach the
// lockstep decision, and the per-endpoint meters must tile the lockstep
// meter (each executor meters exactly its own process's sends).
TEST(EventExecutor, HostedSubsetClusterMatchesLockstep) {
  constexpr std::uint32_t kN = 3;
  constexpr std::uint32_t kT = 1;
  constexpr std::uint64_t kSeed = 77;
  constexpr std::uint64_t kInstance = 5;
  constexpr ProcessId kSender = 2;
  const Value input(7);

  // Reference run, all processes in one lockstep executor.
  harness::RunSpec spec = harness::RunSpec::with(kN, kT);
  spec.seed = kSeed;
  spec.instance = kInstance;
  const harness::ProtocolDriver* driver = harness::find_driver("bb");
  ASSERT_NE(driver, nullptr);
  harness::RunInputs inputs;
  inputs.values = driver->prepare(kN, input);
  inputs.sender = kSender;
  adv::NullAdversary ref_adv;
  const harness::RunReport ref = driver->run(spec, inputs, ref_adv);
  ASSERT_TRUE(ref.agreement());

  net::LoopbackHub hub(kN);
  const Round rounds = bb::BbProcess::total_rounds(kN, kT);

  struct NodeOutcome {
    bool decided = false;
    Value decision = kBottom;
    std::uint64_t words = 0;
  };
  std::vector<NodeOutcome> outcomes(kN);

  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN; ++id) {
    threads.emplace_back([&, id] {
      // Every node derives the same trusted setup from the shared seed.
      ThresholdFamily family(kN, kT, ThresholdBackend::kSim, kSeed);
      std::vector<KeyBundle> bundles;
      for (ProcessId p = 0; p < kN; ++p) {
        bundles.push_back(family.issue_bundle(p));
      }
      ProtocolContext ctx;
      ctx.id = id;
      ctx.n = kN;
      ctx.t = kT;
      ctx.instance = kInstance;
      ctx.crypto = &family;
      ctx.keys = &bundles[id];
      std::vector<std::unique_ptr<IProcess>> processes(kN);
      processes[id] = std::make_unique<bb::BbProcess>(ctx, kSender, input);

      net::TimeoutRoundSync sync(hub.watermarks(), id,
                                 std::chrono::milliseconds(10'000));
      EventExecutorConfig config;
      config.instance = kInstance;
      config.local = {id};
      config.transport = &hub.endpoint(id);
      config.sync = &sync;
      adv::NullAdversary adv;
      EventExecutor exec(family, std::move(bundles), std::move(processes),
                         adv, ExecutorHooks{}, config);
      exec.run(rounds);

      const auto& proc =
          static_cast<const bb::BbProcess&>(std::as_const(exec).process(id));
      outcomes[id].decided = proc.decided();
      outcomes[id].decision = proc.decision();
      outcomes[id].words = exec.meter().words_correct;
      EXPECT_EQ(sync.timeouts(), 0u) << "endpoint " << id;
      EXPECT_EQ(exec.stats().foreign_drops, 0u);
    });
  }
  for (auto& t : threads) t.join();

  std::uint64_t words_total = 0;
  for (ProcessId id = 0; id < kN; ++id) {
    EXPECT_TRUE(outcomes[id].decided) << "endpoint " << id;
    EXPECT_EQ(outcomes[id].decision.raw, ref.decision().value.raw)
        << "endpoint " << id;
    // A hosted-subset executor meters its own sends only, so its total is
    // the reference run's per-process attribution for that id.
    EXPECT_EQ(outcomes[id].words, ref.meter.words_by_process[id])
        << "endpoint " << id;
    words_total += outcomes[id].words;
  }
  EXPECT_EQ(words_total, ref.meter.words_correct);
}

}  // namespace
}  // namespace mewc
