// Direct mechanics tests for the adversary library: each strategy must do
// exactly what its protocol tests assume (verified via the message
// recorder rather than inferred from outcomes).
#include "ba/adversaries/adversaries.hpp"

#include <gtest/gtest.h>

#include <map>

#include "ba/adversaries/fuzzer.hpp"
#include "ba/harness.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");

/// Collects Byzantine traffic per (round, kind).
struct ByzProbe {
  std::map<std::string, std::uint32_t> kind_counts;
  std::map<ProcessId, std::uint32_t> sender_counts;
  std::uint32_t total = 0;

  harness::RunSpec attach(harness::RunSpec spec) {
    spec.recorder = [this](const Message& m, bool correct) {
      if (correct) return;
      ++kind_counts[m.body->kind()];
      ++sender_counts[m.from];
      ++total;
    };
    return spec;
  }
};

TEST(AdversaryMechanics, CrashVictimsNeverSend) {
  ByzProbe probe;
  auto spec = probe.attach(RunSpec::for_t(2));
  adv::CrashAdversary adv({1, 3});
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(probe.total, 0u);  // crash = silence, not noise
}

TEST(AdversaryMechanics, EquivocatingSenderSendsBothSignedValues) {
  ByzProbe probe;
  auto spec = probe.attach(RunSpec::for_t(2));
  adv::BbEquivocatingSender adv(2, spec.instance,
                                adv::SenderMode::kEquivocate, Value(10),
                                Value(11));
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(10)), 2}, adv);
  EXPECT_TRUE(res.agreement());
  // One sender_value per process (n of them), all from the sender.
  EXPECT_EQ(probe.kind_counts["bb.sender_value"], spec.n - 1);  // no self
  EXPECT_EQ(probe.sender_counts.size(), 1u);
  EXPECT_EQ(probe.sender_counts.begin()->first, 2u);
}

TEST(AdversaryMechanics, PartialSenderReachesOnlyRequestedProcesses) {
  ByzProbe probe;
  auto spec = probe.attach(RunSpec::for_t(2));
  adv::BbEquivocatingSender adv(4, spec.instance, adv::SenderMode::kPartial,
                                Value(10), Value(0), /*reach=*/2);
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(10)), 4}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(probe.kind_counts["bb.sender_value"], 2u);
}

TEST(AdversaryMechanics, CertSplitEmitsTheExpectedCertificates) {
  ByzProbe probe;
  auto spec = probe.attach(RunSpec::for_t(2));
  adv::WbaCertSplit adv(spec.instance, 1, WireValue::plain(Value(7)), 0, 1);
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(3))}, adv);
  EXPECT_TRUE(res.agreement());
  // Leader's phase: one propose broadcast (n-1 link crossings), one commit
  // broadcast, exactly ONE finalize unicast.
  EXPECT_EQ(probe.kind_counts["wba.propose"], spec.n - 1);
  EXPECT_EQ(probe.kind_counts["wba.commit"], spec.n - 1);
  EXPECT_EQ(probe.kind_counts["wba.finalized"], 1u);
}

TEST(AdversaryMechanics, HelpSpamSendsOnlyInTheHelpWindow) {
  ByzProbe probe;
  auto spec = probe.attach(RunSpec::for_t(3));
  const Round help_round = 5 * spec.n + 1;
  adv::WbaHelpSpam adv(spec.instance, help_round, 2, false, 0);
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(3))}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(probe.kind_counts["wba.help_req"], 2u * (spec.n - 1));
  EXPECT_EQ(probe.kind_counts.size(), 1u);  // nothing else, ever
}

TEST(AdversaryMechanics, FuzzerEmitsConfiguredVolume) {
  ByzProbe probe;
  auto spec = probe.attach(RunSpec::for_t(2));
  adv::Fuzzer adv(spec.instance, 5, /*corruptions=*/1,
                  /*messages_per_round=*/2);
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(3))}, adv);
  EXPECT_TRUE(res.agreement());
  // 2 messages per round, mixed unicast/broadcast: at least 2 link
  // crossings per round, at most 2n.
  EXPECT_GE(probe.total, 2u * res.rounds);
  EXPECT_LE(probe.total, 2u * res.rounds * spec.n);
}

TEST(AdversaryMechanics, CompositeRunsAllParts) {
  ByzProbe probe;
  auto spec = probe.attach(RunSpec::for_t(3));
  std::vector<std::unique_ptr<Adversary>> parts;
  parts.push_back(std::make_unique<adv::BbEquivocatingSender>(
      0, spec.instance, adv::SenderMode::kEquivocate, Value(1), Value(2)));
  parts.push_back(std::make_unique<adv::CrashAdversary>(
      std::vector<ProcessId>{5}));
  adv::Composite adv(std::move(parts));
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.f(), 2u);  // both strategies corrupted their victims
  EXPECT_GT(probe.kind_counts["bb.sender_value"], 0u);
}

TEST(AdversaryMechanics, AdaptiveLeaderCrashRespectsBudgetAcrossPhases) {
  auto spec = RunSpec::for_t(4);  // n = 9
  adv::AdaptiveLeaderCrash adv(1, 5, spec.n, /*budget=*/3);
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(3))}, adv);
  EXPECT_EQ(res.f(), 3u);
  EXPECT_EQ(res.corrupted, (std::vector<ProcessId>{0, 1, 2}));
}

}  // namespace
}  // namespace mewc
