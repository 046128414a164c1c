// Generalized resilience n >= 2t+1 (paper Section 8): the BB and weak BA
// constructions only need the quorum intersection property, which
// ceil((n+t+1)/2) certificates provide at any n >= 2t+1 — and a wider gap
// n - 2t widens the adaptive regime. At n = 3t+1 the weak BA is adaptive
// for EVERY f <= t (n - ceil((n+t+1)/2) = t), which is the regime
// Spiegelman (DISC 2021) considers.
#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");
const harness::ProtocolDriver& kStrongBa = *harness::find_driver("strong-ba");

std::vector<ProcessId> first_f(std::uint32_t f) {
  std::vector<ProcessId> v;
  for (std::uint32_t i = 0; i < f; ++i) v.push_back(i);
  return v;
}

TEST(Resilience, QuorumIntersectionHoldsForAnyGap) {
  for (std::uint32_t t = 1; t <= 20; ++t) {
    for (std::uint32_t n = 2 * t + 1; n <= 4 * t + 2; n += t) {
      const std::uint32_t q = commit_quorum(n, t);
      EXPECT_GE(2 * q, n + t + 1) << "n=" << n << " t=" << t;
    }
  }
}

TEST(Resilience, AtThreeTPlusOneAdaptiveForAllF) {
  const std::uint32_t t = 4;
  const std::uint32_t n = 3 * t + 1;  // 13
  for (std::uint32_t f = 0; f <= t; ++f) {
    EXPECT_TRUE(adaptive_regime(n, t, f)) << "f=" << f;
  }
}

struct ResilienceParam {
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t f;
};

class ResilienceSweep : public ::testing::TestWithParam<ResilienceParam> {};

TEST_P(ResilienceSweep, WeakBaCorrectAtWiderResilience) {
  const auto [n, t, f] = GetParam();
  auto spec = RunSpec::with(n, t);
  adv::CrashAdversary adv(first_f(f));
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(3))}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(3));
  if (adaptive_regime(n, t, f)) {
    EXPECT_FALSE(res.any_fallback());
  }
}

TEST_P(ResilienceSweep, BbCorrectAtWiderResilience) {
  const auto [n, t, f] = GetParam();
  auto spec = RunSpec::with(n, t);
  const ProcessId sender = n - 1;  // outside the crash set
  adv::CrashAdversary adv(first_f(f));
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(17)), sender}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(17));
}

TEST_P(ResilienceSweep, StrongBaCorrectAtWiderResilience) {
  const auto [n, t, f] = GetParam();
  auto spec = RunSpec::with(n, t);
  adv::CrashAdversary adv(first_f(f));
  const auto res =
      kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(1));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ResilienceSweep,
    ::testing::Values(ResilienceParam{7, 2, 0},    // n = 3t+1
                      ResilienceParam{7, 2, 2},    // fully adaptive at f=t
                      ResilienceParam{13, 4, 0}, ResilienceParam{13, 4, 2},
                      ResilienceParam{13, 4, 4},   // f = t, still adaptive
                      ResilienceParam{8, 2, 2},    // even n
                      ResilienceParam{10, 3, 3},   // n = 3t+1
                      ResilienceParam{16, 3, 3},   // n = 5t+1
                      ResilienceParam{21, 4, 4}),  // n = 5t+1
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_t" +
             std::to_string(info.param.t) + "_f" +
             std::to_string(info.param.f);
    });

TEST(Resilience, ThreeTPlusOneNeverFallsBackEvenAtMaxF) {
  // The paper's Section 8 observation made concrete: with n = 3t+1, even
  // f = t crashes keep the weak BA fully adaptive — zero fallback traffic.
  const std::uint32_t t = 4;
  auto spec = RunSpec::with(3 * t + 1, t);
  adv::CrashAdversary adv(first_f(t));
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(8))}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_FALSE(res.any_fallback());
  EXPECT_EQ(res.help_reqs(), 0u);
  EXPECT_EQ(res.decision().value, Value(8));
}

TEST(Resilience, WiderGapShrinksWorstCaseCost) {
  // Same t, same f = t crash pattern: at n = 2t+1 the run needs the
  // fallback; at n = 3t+1 it stays in the cheap adaptive path.
  const std::uint32_t t = 3;
  adv::CrashAdversary a1(first_f(t)), a2(first_f(t));
  const auto tight = kWeakBa.run(
      RunSpec::for_t(t), {kWeakBa.prepare(n_for_t(t), Value(8))}, a1);
  const auto wide = kWeakBa.run(RunSpec::with(3 * t + 1, t),
                                {kWeakBa.prepare(3 * t + 1, Value(8))}, a2);
  EXPECT_TRUE(tight.any_fallback());
  EXPECT_FALSE(wide.any_fallback());
  EXPECT_LT(wide.meter.words_correct, tight.meter.words_correct);
}

}  // namespace
}  // namespace mewc
