// Scale smoke tests (n up to 101) and graceful-degradation checks for
// out-of-contract inputs.
#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/bb/bb.hpp"
#include "ba/harness.hpp"
#include "smr/ledger.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");
const harness::ProtocolDriver& kStrongBa = *harness::find_driver("strong-ba");

TEST(Scale, WeakBaAtHundredProcesses) {
  auto spec = RunSpec::for_t(50);  // n = 101
  adv::CrashAdversary adv({0, 1});
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(3))}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_FALSE(res.any_fallback());
  EXPECT_EQ(res.decision().value, Value(3));
  // Adaptive bill at scale: well under the worst case.
  EXPECT_LE(res.meter.words_correct, 30ull * spec.n * 3);
}

TEST(Scale, BbAtHundredProcessesFailureFree) {
  auto spec = RunSpec::for_t(50);
  adv::NullAdversary adv;
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(9)), 100}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(9));
  EXPECT_LE(res.meter.words_correct, 16ull * spec.n);
}

TEST(Scale, StrongBaAtTwoHundredProcesses) {
  auto spec = RunSpec::for_t(100);  // n = 201
  adv::NullAdversary adv;
  const auto res =
      kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, adv);
  EXPECT_TRUE(res.all_fast());
  EXPECT_LE(res.meter.words_correct, 10ull * spec.n);
}

TEST(Scale, LeaderKillerAtScaleStaysLinear) {
  auto spec = RunSpec::for_t(40);  // n = 81, boundary f <= 20
  const std::uint32_t f = 10;
  adv::AdaptiveLeaderCrash adv(3, 5, spec.n, f);
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(3))}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_FALSE(res.any_fallback());
  EXPECT_LE(res.meter.words_correct, 30ull * spec.n * (f + 1));
}

TEST(Robustness, WeakBaWithPredicateInvalidInputsStillTerminates) {
  // Out of contract: the paper's precondition is that correct processes
  // propose valid values. Violate it (a predicate nothing satisfies is
  // simulated by proposing ⊥ under AlwaysValid): nobody can ever vote, so
  // the run must flow through help/fallback and still agree — on ⊥.
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res =
      kWeakBa.run(spec, {std::vector<WireValue>(spec.n, bottom_value())}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_TRUE(res.decision().is_bottom());
  EXPECT_TRUE(res.any_fallback());
}

TEST(Robustness, MixedValidityInputsDegradeGracefully) {
  // Some processes propose valid values, others ⊥: phases led by
  // ⊥-holders cannot certify, valid-holders' phases can.
  auto spec = RunSpec::for_t(2);
  std::vector<WireValue> inputs = {bottom_value(), WireValue::plain(Value(4)),
                                   bottom_value(), WireValue::plain(Value(5)),
                                   bottom_value()};
  adv::NullAdversary adv;
  const auto res = kWeakBa.run(spec, {inputs}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  // p0's ⊥ phase fails; p1's phase certifies 4.
  EXPECT_EQ(res.decision().value, Value(4));
}

TEST(Robustness, ApiMisuseAborts) {
  // The library refuses nonsensical configurations loudly.
  EXPECT_DEATH(ThresholdFamily(4, 2), "2t");          // n < 2t+1
  EXPECT_DEATH((void)harness::RunSpec::with(4, 2), ""); // same via harness
  EXPECT_DEATH(
      {
        smr::Ledger::Config c;
        c.n = 3;
        c.t = 2;
        smr::Ledger ledger(c);
      },
      "");
}

TEST(Robustness, SenderIndexOutOfRangeAborts) {
  ThresholdFamily family(5, 2);
  KeyBundle bundle = family.issue_bundle(0);
  ProtocolContext ctx;
  ctx.id = 0;
  ctx.n = 5;
  ctx.t = 2;
  ctx.crypto = &family;
  ctx.keys = &bundle;
  EXPECT_DEATH(bb::BbProcess(ctx, /*sender=*/7, Value(1)), "");
}

}  // namespace
}  // namespace mewc
