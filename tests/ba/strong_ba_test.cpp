// Strong binary BA (Algorithm 5): the failure-free fast path, strong
// unanimity and agreement across leader misbehaviour and crashes, and the
// fallback cascade with the 2δ window adoption.
#include "ba/strong_ba/strong_ba.hpp"

#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kStrongBa = *harness::find_driver("strong-ba");

std::vector<WireValue> binary_inputs(std::initializer_list<int> bits) {
  std::vector<WireValue> out;
  for (int b : bits) {
    out.push_back(WireValue::plain(Value(static_cast<std::uint64_t>(b))));
  }
  return out;
}

std::vector<WireValue> uniform_bits(std::uint32_t n, int b) {
  return kStrongBa.prepare(n, Value(static_cast<std::uint64_t>(b)));
}

TEST(StrongBa, FailureFreeUnanimousDecidesFast) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res = kStrongBa.run(spec, {uniform_bits(5, 1)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(1));
  EXPECT_TRUE(res.all_fast());            // all via the decide certificate
  EXPECT_FALSE(res.any_fallback());       // Lemma 8
}

TEST(StrongBa, FailureFreeMixedDecidesMajorityCertifiedValue) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res =
      kStrongBa.run(spec, {binary_inputs({1, 1, 0, 1, 0})}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(1));  // 1 has t+1 = 3 supporters
  EXPECT_TRUE(res.all_fast());
}

TEST(StrongBa, FailureFreeWordsAreLinear) {
  // The Section 7 headline: f = 0 costs O(n) words end to end.
  for (std::uint32_t t : {2u, 5u, 10u}) {
    auto spec = RunSpec::for_t(t);
    adv::NullAdversary adv;
    const auto res = kStrongBa.run(spec, {uniform_bits(spec.n, 0)}, adv);
    EXPECT_TRUE(res.all_fast());
    EXPECT_LE(res.meter.words_correct, 10ull * spec.n) << "t=" << t;
  }
}

TEST(StrongBa, SingleCrashForcesFallbackButPreservesUnanimity) {
  // The (n, n) decide certificate needs every process: one crash kills the
  // fast path, and strong unanimity must survive the fallback.
  auto spec = RunSpec::for_t(2);
  adv::CrashAdversary adv({3});
  const auto res = kStrongBa.run(spec, {uniform_bits(5, 1)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(1));
  EXPECT_TRUE(res.any_fallback());
}

TEST(StrongBa, CrashedLeaderStillTerminates) {
  auto spec = RunSpec::for_t(2);
  adv::CrashAdversary adv({sba::StrongBaProcess::kLeader});
  const auto res = kStrongBa.run(spec, {uniform_bits(5, 0)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(0));
  EXPECT_TRUE(res.any_fallback());
}

TEST(StrongBa, MaximalCrashUnanimity) {
  auto spec = RunSpec::for_t(3);  // n = 7
  adv::CrashAdversary adv({0, 2, 4});
  const auto res = kStrongBa.run(spec, {uniform_bits(7, 1)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(1));
}

TEST(StrongBa, SilentByzantineLeaderUnanimity) {
  auto spec = RunSpec::for_t(2);
  adv::Alg5Withhold adv(spec.instance, adv::Alg5Mode::kSilent);
  const auto res = kStrongBa.run(spec, {uniform_bits(5, 1)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(1));
}

TEST(StrongBa, SplitProposeCertificatesStillAgree) {
  // Byzantine leader certifies both values (possible with split inputs plus
  // its own signature) and shows different certificates to different halves.
  // The n-of-n decide certificate then cannot form and everyone falls back.
  auto spec = RunSpec::for_t(2);
  adv::Alg5Withhold adv(spec.instance, adv::Alg5Mode::kSplitPropose);
  const auto res =
      kStrongBa.run(spec, {binary_inputs({0, 0, 1, 1, 0})}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  const Value d = res.decision().value;
  EXPECT_TRUE(d == Value(0) || d == Value(1));
}

TEST(StrongBa, HiddenDecideCertificateAdoptedInWindow) {
  // The leader completes the protocol but shows the decide certificate to a
  // single correct process, which decides fast. Everyone else broadcasts
  // fallback; the fast decider echoes its proof in the window; all adopt it
  // and the fallback confirms the same value (Lemma 26).
  auto spec = RunSpec::for_t(2);
  adv::Alg5Withhold adv(spec.instance, adv::Alg5Mode::kHideDecide,
                        /*reach=*/1);
  const auto res = kStrongBa.run(spec, {uniform_bits(5, 1)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(1));
  // Exactly one process decided via the certificate.
  std::uint32_t fast = 0;
  for (const auto& s : res.outcomes) fast += (s && s->decided_fast) ? 1 : 0;
  EXPECT_EQ(fast, 1u);
}

TEST(StrongBa, SplitInputsWithByzantineLeaderNeverLeaveDomain) {
  // Whatever the adversary does, a binary BA decision stays in {0, 1}.
  auto spec = RunSpec::for_t(3);
  adv::Alg5Withhold adv(spec.instance, adv::Alg5Mode::kSplitPropose);
  const auto res =
      kStrongBa.run(spec, {binary_inputs({0, 1, 0, 1, 0, 1, 0})}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_LE(res.decision().value.raw, 1u);
}

struct UnanimityParam {
  std::uint32_t t;
  std::uint32_t f;
  int bit;
};

class StrongBaUnanimitySweep
    : public ::testing::TestWithParam<UnanimityParam> {};

TEST_P(StrongBaUnanimitySweep, CrashPatternsPreserveUnanimity) {
  const auto [t, f, bit] = GetParam();
  auto spec = RunSpec::for_t(t);
  std::vector<ProcessId> victims;
  for (std::uint32_t i = 0; i < f; ++i) {
    victims.push_back((i * 3 + 1) % spec.n);
  }
  adv::CrashAdversary adv(victims);
  const auto res = kStrongBa.run(spec, {uniform_bits(spec.n, bit)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(static_cast<std::uint64_t>(bit)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StrongBaUnanimitySweep,
    ::testing::Values(UnanimityParam{1, 1, 0}, UnanimityParam{2, 1, 1},
                      UnanimityParam{2, 2, 0}, UnanimityParam{3, 1, 1},
                      UnanimityParam{3, 3, 0}, UnanimityParam{4, 2, 1},
                      UnanimityParam{4, 4, 1}, UnanimityParam{5, 5, 0}),
    [](const auto& info) {
      return "t" + std::to_string(info.param.t) + "_f" +
             std::to_string(info.param.f) + "_v" +
             std::to_string(info.param.bit);
    });

TEST(StrongBa, RoundScheduleIsExact) {
  EXPECT_EQ(sba::StrongBaProcess::total_rounds(2), 6u + 3u);
  EXPECT_EQ(sba::StrongBaProcess::total_rounds(5), 6u + 6u);
}

}  // namespace
}  // namespace mewc
