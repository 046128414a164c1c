// Communication-complexity envelope tests: the Table 1 bounds, asserted as
// hard envelopes on metered words (benches measure the curves; these tests
// pin the asymptotic shape so regressions fail loudly).
#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/fallback/cost_model.hpp"
#include "ba/harness.hpp"
#include "common/stats.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");
const harness::ProtocolDriver& kStrongBa = *harness::find_driver("strong-ba");
const harness::ProtocolDriver& kFallbackBa = *harness::find_driver("fallback");
const harness::ProtocolDriver& kDsBb = *harness::find_driver("ds-bb");

std::vector<ProcessId> first_f(std::uint32_t f) {
  std::vector<ProcessId> v;
  for (std::uint32_t i = 0; i < f; ++i) v.push_back(i);
  return v;
}

// ---------------------------------------------------------------------------
// BB: O(n(f+1)) in the adaptive regime; O(n) when failure-free.
// ---------------------------------------------------------------------------

TEST(Complexity, BbFailureFreeIsLinear) {
  for (std::uint32_t t : {2u, 5u, 10u, 20u}) {
    auto spec = RunSpec::for_t(t);
    adv::NullAdversary adv;
    const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, adv);
    ASSERT_TRUE(res.agreement());
    // Dissemination (n-1 x 2 words) + one weak-BA phase (4 leader rounds of
    // <= 3-word messages) + self-costs: comfortably under 16n.
    EXPECT_LE(res.meter.words_correct, 16ull * spec.n) << "t=" << t;
  }
}

TEST(Complexity, BbAdaptiveEnvelope) {
  // Words <= C * n * (f+1) across the adaptive regime, C fixed across n and
  // f — the paper's O(n(f+1)) with an explicit constant.
  constexpr std::uint64_t kC = 30;
  for (std::uint32_t t : {4u, 8u, 12u}) {
    auto spec = RunSpec::for_t(t);
    const std::uint32_t boundary = spec.n - commit_quorum(spec.n, spec.t);
    for (std::uint32_t f = 0; f <= boundary; f += 2) {
      adv::CrashAdversary adv(first_f(f));
      const auto res =
          kBb.run(spec, {kBb.prepare(spec.n, Value(3)), spec.n - 1}, adv);
      ASSERT_TRUE(res.agreement()) << "t=" << t << " f=" << f;
      EXPECT_LE(res.meter.words_correct, kC * spec.n * (f + 1))
          << "t=" << t << " f=" << f;
    }
  }
}

TEST(Complexity, BbNonsilentPhasesLinearInF) {
  // Section 5.1: after the first non-silent correct-leader phase, all later
  // correct phases are silent, so non-silent leaders <= f + 1.
  for (std::uint32_t f : {0u, 2u, 4u}) {
    auto spec = RunSpec::for_t(6);  // n = 13
    adv::CrashAdversary adv(first_f(f));  // crash the first f leaders
    const auto res =
        kBb.run(spec, {kBb.prepare(spec.n, Value(3)), spec.n - 1}, adv);
    ASSERT_TRUE(res.agreement());
    EXPECT_LE(res.nonsilent_leaders(), f + 1) << "f=" << f;
  }
}

// ---------------------------------------------------------------------------
// Weak BA: O(n(f+1)) in the adaptive regime; fallback only beyond it.
// ---------------------------------------------------------------------------

TEST(Complexity, WeakBaAdaptiveEnvelope) {
  constexpr std::uint64_t kC = 30;
  for (std::uint32_t t : {4u, 8u, 12u}) {
    auto spec = RunSpec::for_t(t);
    const std::uint32_t boundary = spec.n - commit_quorum(spec.n, spec.t);
    for (std::uint32_t f = 0; f <= boundary; f += 2) {
      adv::CrashAdversary adv(first_f(f));
      const auto res =
          kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(2))}, adv);
      ASSERT_TRUE(res.agreement()) << "t=" << t << " f=" << f;
      EXPECT_FALSE(res.any_fallback()) << "t=" << t << " f=" << f;
      EXPECT_LE(res.meter.words_correct, kC * spec.n * (f + 1))
          << "t=" << t << " f=" << f;
    }
  }
}

TEST(Complexity, WeakBaWorstCaseLeaderKiller) {
  // The adaptive adversary corrupts each upcoming leader just in time:
  // every corrupted leader burns one silent phase, and the envelope must
  // still hold with f+1 non-silent phases.
  auto spec = RunSpec::for_t(10);  // n = 21, boundary f < ~5
  const std::uint32_t f = 4;
  adv::AdaptiveLeaderCrash adv(1, 5, spec.n, f);
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(2))}, adv);
  ASSERT_TRUE(res.agreement());
  EXPECT_FALSE(res.any_fallback());
  EXPECT_LE(res.meter.words_correct, 30ull * spec.n * (f + 1));
}

TEST(Complexity, SilentPhasesCostNothing) {
  // A silent phase sends zero correct words: phases 2..n in a failure-free
  // run are completely quiet.
  auto spec = RunSpec::for_t(8);
  adv::NullAdversary adv;
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(2))}, adv);
  EXPECT_EQ(res.meter.words_in_rounds(6, 5 * spec.n + 1), 0u);
}

// ---------------------------------------------------------------------------
// Strong BA (Algorithm 5): O(n) at f = 0, fallback otherwise.
// ---------------------------------------------------------------------------

TEST(Complexity, StrongBaFailureFreeExactlyFourLeaderRounds) {
  auto spec = RunSpec::for_t(10);  // n = 21
  adv::NullAdversary adv;
  const auto res =
      kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, adv);
  ASSERT_TRUE(res.all_fast());
  // Rounds 1-4 carry all traffic; rounds 5+ (fallback machinery) are quiet.
  EXPECT_GT(res.meter.words_in_rounds(1, 5), 0u);
  EXPECT_EQ(res.meter.words_in_rounds(5, res.rounds + 1), 0u);
  EXPECT_LE(res.meter.words_correct, 10ull * spec.n);
}

TEST(Complexity, StrongBaLinearScalingAtFZero) {
  // Doubling n must roughly double the failure-free cost (not quadruple):
  // the words/n ratio stays within a tight band.
  adv::NullAdversary adv;
  auto words_at = [&](std::uint32_t t) {
    auto spec = RunSpec::for_t(t);
    const auto res =
        kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(0))}, adv);
    return static_cast<double>(res.meter.words_correct) / spec.n;
  };
  const double small = words_at(5), large = words_at(20);
  EXPECT_LT(large / small, 1.5);  // per-process cost is flat in n
}

// ---------------------------------------------------------------------------
// Dolev-Reischuk separation (E8): logical signatures vs words at f = 0.
// ---------------------------------------------------------------------------

TEST(Complexity, SignatureWordSeparationFailureFree) {
  // The paper's starting point: Omega(nt) signatures are inevitable, but
  // threshold certificates pack them into O(n) words. Our failure-free BB
  // transfers Theta(n*t) logical signatures in Theta(n) words.
  auto spec = RunSpec::for_t(15);  // n = 31
  adv::NullAdversary adv;
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, adv);
  ASSERT_TRUE(res.agreement());
  const std::uint64_t nt =
      static_cast<std::uint64_t>(spec.n) * commit_quorum(spec.n, spec.t);
  EXPECT_GE(res.meter.logical_sigs_correct, nt / 2);  // Theta(nt) transferred
  EXPECT_LE(res.meter.words_correct, 16ull * spec.n); // in Theta(n) words
}

// ---------------------------------------------------------------------------
// Baseline comparisons: who wins, by what factor.
// ---------------------------------------------------------------------------

TEST(Complexity, AdaptiveBbBeatsDolevStrongFailureFree) {
  auto spec = RunSpec::for_t(10);  // n = 21
  adv::NullAdversary adv1, adv2;
  const auto adaptive = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, adv1);
  const auto classic =
      kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(1)), 0}, adv2);
  ASSERT_TRUE(adaptive.agreement());
  ASSERT_TRUE(classic.agreement());
  // Θ(n) vs Θ(n^2): at n = 21 the adaptive protocol must win by a wide
  // margin (the paper's Table 1 separation).
  EXPECT_LT(adaptive.meter.words_correct * 3, classic.meter.words_correct);
}

TEST(Complexity, ModeledFallbackCostIsQuadratic) {
  EXPECT_EQ(fallback::modeled_momose_ren_words(10), 1200u);
  EXPECT_EQ(fallback::modeled_momose_ren_words(20) /
                fallback::modeled_momose_ren_words(10),
            4u);
}

// ---------------------------------------------------------------------------
// Growth-order fits: the measured exponents of words-vs-n curves must match
// the Table 1 orders (linear adaptive protocols, quadratic Dolev-Strong
// baseline, cubic substituted fallback).
// ---------------------------------------------------------------------------

TEST(GrowthOrder, WeakBaFailureFreeIsLinearInN) {
  std::vector<double> ns, words;
  for (std::uint32_t t : {5u, 10u, 20u, 40u}) {
    auto spec = RunSpec::for_t(t);
    adv::NullAdversary adv;
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(2))}, adv);
    ns.push_back(spec.n);
    words.push_back(static_cast<double>(res.meter.words_correct));
  }
  const auto fit = stats::fit_power_law(ns, words);
  EXPECT_NEAR(fit.slope, 1.0, 0.1) << "words ~ n^" << fit.slope;
  EXPECT_GT(fit.r2, 0.999);
}

TEST(GrowthOrder, DolevStrongBaselineIsQuadraticInN) {
  std::vector<double> ns, words;
  for (std::uint32_t t : {5u, 10u, 20u}) {
    auto spec = RunSpec::for_t(t);
    adv::NullAdversary adv;
    const auto res = kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(1)), 0}, adv);
    ns.push_back(spec.n);
    words.push_back(static_cast<double>(res.meter.words_correct));
  }
  const auto fit = stats::fit_power_law(ns, words);
  EXPECT_NEAR(fit.slope, 2.0, 0.25) << "words ~ n^" << fit.slope;
}

TEST(GrowthOrder, SubstitutedFallbackIsCubicInN) {
  std::vector<double> ns, words;
  for (std::uint32_t t : {2u, 5u, 10u}) {
    auto spec = RunSpec::for_t(t);
    adv::NullAdversary adv;
    const auto res =
        kFallbackBa.run(spec, {kFallbackBa.prepare(spec.n, Value(1))}, adv);
    ns.push_back(spec.n);
    words.push_back(static_cast<double>(res.meter.words_correct));
  }
  const auto fit = stats::fit_power_law(ns, words);
  EXPECT_NEAR(fit.slope, 3.0, 0.25) << "words ~ n^" << fit.slope;
}

TEST(GrowthOrder, WeakBaKillerSweepIsLinearInF) {
  // Mid-phase leader killer: words as a function of f fit a line with
  // positive slope and excellent r^2 — O(n(f+1)) observed as a curve.
  auto spec = RunSpec::for_t(10);  // n = 21
  std::vector<double> fs, words;
  for (std::uint32_t f = 0; f <= 5; ++f) {
    adv::AdaptiveLeaderCrash adv(3, 5, spec.n, f);
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(2))}, adv);
    ASSERT_FALSE(res.any_fallback());
    fs.push_back(res.f());
    words.push_back(static_cast<double>(res.meter.words_correct));
  }
  const auto fit = stats::fit_linear(fs, words);
  EXPECT_GT(fit.slope, spec.n);       // each failure costs at least n words
  EXPECT_LT(fit.slope, 10.0 * spec.n);
  EXPECT_GT(fit.r2, 0.99);
}

// ---------------------------------------------------------------------------
// Early stopping: rounds-to-decision adapts to f even though the static
// schedule is Θ(n) rounds (the Section 4 "early stopping" discussion).
// ---------------------------------------------------------------------------

TEST(EarlyStopping, WeakBaDecisionRoundTracksF) {
  auto spec = RunSpec::for_t(10);
  for (std::uint32_t f = 0; f <= 4; f += 2) {
    adv::AdaptiveLeaderCrash adv(3, 5, spec.n, f);
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(2))}, adv);
    for (const auto& s : res.outcomes) {
      if (!s) continue;
      ASSERT_TRUE(s->decided);
      // Decision lands at the end of phase f+1: round 5(f+1).
      EXPECT_EQ(s->decided_round, 5u * (f + 1)) << "f=" << f;
    }
  }
}

TEST(EarlyStopping, StrongBaFastPathDecidesInRoundFour) {
  auto spec = RunSpec::for_t(5);
  adv::NullAdversary adv;
  const auto res =
      kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, adv);
  for (const auto& s : res.outcomes) {
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->decided_round, 4u);
  }
}

TEST(EarlyStopping, BbFailureFreeDecidesInFirstWbaPhase) {
  auto spec = RunSpec::for_t(5);
  adv::NullAdversary adv;
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, adv);
  const Round wba_first = 1 + 3 * spec.n + 1;
  for (const auto& s : res.outcomes) {
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->decided_round, wba_first - 1 + 5);  // end of wba phase 1
  }
}

}  // namespace
}  // namespace mewc
