// Reproducibility: the simulator is deterministic — identical RunSpecs and
// adversaries produce bit-identical outcomes (decisions, meters, digests).
// This is what makes every number in EXPERIMENTS.md regenerable.
#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/adversaries/fuzzer.hpp"
#include "ba/harness.hpp"
#include "smr/ledger.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");
const harness::ProtocolDriver& kStrongBa = *harness::find_driver("strong-ba");

TEST(Determinism, WeakBaRunsAreBitIdentical) {
  auto run = [] {
    auto spec = RunSpec::for_t(3);
    adv::CrashAdversary adv({1, 4});
    return kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adv);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.meter.words_correct, b.meter.words_correct);
  EXPECT_EQ(a.meter.logical_sigs_correct, b.meter.logical_sigs_correct);
  EXPECT_EQ(a.meter.words_by_round, b.meter.words_by_round);
  EXPECT_TRUE(a.decision() == b.decision());
}

TEST(Determinism, FuzzedRunsAreSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    auto spec = RunSpec::for_t(3);
    adv::Fuzzer adv(spec.instance, seed, 2, 4);
    return kBb.run(spec, {kBb.prepare(spec.n, Value(5)), 0}, adv);
  };
  const auto a = run(99);
  const auto b = run(99);
  const auto c = run(100);
  EXPECT_EQ(a.meter.words_correct, b.meter.words_correct);
  EXPECT_EQ(a.meter.words_byzantine, b.meter.words_byzantine);
  EXPECT_EQ(a.decision(), b.decision());
  // A different fuzz seed changes the Byzantine traffic pattern...
  EXPECT_NE(a.meter.words_byzantine, c.meter.words_byzantine);
  // ...but never the protocol outcome for a correct sender.
  EXPECT_EQ(a.decision(), c.decision());
}

TEST(Determinism, CryptoSeedChangesTagsNotOutcomes) {
  auto run = [](std::uint64_t seed) {
    auto spec = RunSpec::for_t(2);
    spec.seed = seed;
    adv::NullAdversary adv;
    return kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, adv);
  };
  const auto a = run(1);
  const auto b = run(2);
  EXPECT_EQ(a.decision(), b.decision());
  EXPECT_EQ(a.meter.words_correct, b.meter.words_correct);
}

TEST(Determinism, LedgersReplayIdentically) {
  auto run = [] {
    smr::Ledger::Config c;
    c.t = 2;
    c.n = n_for_t(c.t);
    c.checkpoint_every = 2;
    smr::Ledger ledger(c);
    smr::Ledger::AdversaryFactory factory =
        [](std::uint64_t slot,
           ProcessId proposer) -> std::unique_ptr<Adversary> {
      if (slot % 3 == 1) {
        return std::make_unique<adv::CrashAdversary>(
            std::vector<ProcessId>{proposer});
      }
      return nullptr;
    };
    for (std::uint64_t s = 0; s < 5; ++s) ledger.append(Value(s + 1), factory);
    return ledger.ledger_digest();
  };
  EXPECT_EQ(run(), run());
}

TEST(Determinism, ShamirBackendMatchesSimBackendOutcomes) {
  // The two crypto backends must be behaviorally interchangeable: same
  // decisions, same word counts (certificates cost one word either way).
  for (auto backend : {ThresholdBackend::kSim, ThresholdBackend::kShamir}) {
    auto spec = RunSpec::for_t(2);
    spec.backend = backend;
    adv::CrashAdversary adv({0});
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(4))}, adv);
    EXPECT_TRUE(res.agreement());
    EXPECT_EQ(res.decision().value, Value(4));
    EXPECT_EQ(res.meter.words_correct > 0, true);
  }
  auto words_for = [](ThresholdBackend backend) {
    auto spec = RunSpec::for_t(2);
    spec.backend = backend;
    adv::NullAdversary adv;
    return kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(4))}, adv)
        .meter.words_correct;
  };
  EXPECT_EQ(words_for(ThresholdBackend::kSim),
            words_for(ThresholdBackend::kShamir));
}

}  // namespace
}  // namespace mewc
