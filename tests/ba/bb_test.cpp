// Adaptive Byzantine Broadcast (Algorithms 1 + 2): BB validity with a
// correct sender under every adversary, agreement for Byzantine senders
// (equivocation, partial delivery, silence), the idk-certificate path, and
// silent-phase behaviour.
#include "ba/bb/bb.hpp"

#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");

TEST(Bb, CorrectSenderFailureFree) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res =
      kBb.run(spec, {kBb.prepare(spec.n, Value(7)), /*sender=*/1}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(7));
  // Everyone adopted in round 1, so every vetting phase is silent.
  EXPECT_EQ(res.nonsilent_leaders(), 0u);
  EXPECT_FALSE(res.any_fallback());
  for (const auto& s : res.outcomes) {
    ASSERT_TRUE(s.has_value());
    EXPECT_TRUE(s->adopted_from_sender);
  }
}

TEST(Bb, CorrectSenderWithCrashes) {
  // Validity: with a correct sender, crashes of others must not change the
  // decision (Lemma 12).
  auto spec = RunSpec::for_t(5);  // n = 11; adaptive boundary f <= 2
  ASSERT_TRUE(adaptive_regime(spec.n, spec.t, 2));
  adv::CrashAdversary adv({2, 5});
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(13)), 0}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(13));
  EXPECT_FALSE(res.any_fallback());
}

TEST(Bb, CorrectSenderWithMaximalCrash) {
  // f = t crashes (not the sender): the weak BA falls back, but unique
  // validity with BB_valid still forces the sender's value.
  auto spec = RunSpec::for_t(3);
  adv::CrashAdversary adv({1, 2, 3});
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(21)), 0}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(21));
}

TEST(Bb, SilentSenderDecidesBottomViaIdkCertificate) {
  // The sender never speaks: the first correct leader batches t+1 idk
  // partials into an idk certificate, which the weak BA decides, and the
  // BB output is ⊥ everywhere.
  auto spec = RunSpec::for_t(2);
  adv::CrashAdversary adv({3});  // process 3 is the (silent) sender
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(9)), 3}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_TRUE(res.decision().is_bottom());
  // Exactly one non-silent vetting phase: p0's, which rescued everyone.
  EXPECT_EQ(res.nonsilent_leaders(), 1u);
}

TEST(Bb, EquivocatingSenderStillAgrees) {
  // The sender signs 40 for even processes and 41 for odd ones. Both are
  // BB_valid, so the weak BA may decide either — but all correct processes
  // must decide the same one.
  auto spec = RunSpec::for_t(2);
  adv::BbEquivocatingSender adv(2, spec.instance, adv::SenderMode::kEquivocate,
                                Value(40), Value(41));
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(40)), 2}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  const Value d = res.decision().value;
  EXPECT_TRUE(d == Value(40) || d == Value(41)) << d.raw;
}

TEST(Bb, PartialSenderValueSpreadsThroughVetting) {
  // The Byzantine sender tells only two processes. A correct value-less
  // leader's phase relays the sender-signed value to everyone (Lemma 9),
  // and the run decides it.
  auto spec = RunSpec::for_t(2);
  adv::BbEquivocatingSender adv(4, spec.instance, adv::SenderMode::kPartial,
                                Value(50), Value(0), /*reach=*/2);
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(50)), 4}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(50));
}

TEST(Bb, SilentSenderPlusCrashesStillTerminates) {
  // Sender silent + two more crashes = f = t = 3 at n = 7: deep fallback
  // territory; agreement and termination must survive, decision is ⊥.
  auto spec = RunSpec::for_t(3);
  adv::CrashAdversary adv({0, 4, 6});  // 0 is the sender
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(3)), 0}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_TRUE(res.decision().is_bottom());
}

TEST(Bb, AdaptiveLeaderKillerBurnsPhasesButValidityHolds) {
  // Silent sender + adversary that corrupts each upcoming vetting leader
  // right before it would broadcast the rescue value: every burned phase is
  // non-silent (the help_req went out) yet completes nothing. The first
  // unkilled correct leader finishes the job.
  auto spec = RunSpec::for_t(3);  // n = 7, t = 3
  std::vector<std::unique_ptr<Adversary>> parts;
  parts.push_back(std::make_unique<adv::CrashAdversary>(
      std::vector<ProcessId>{6}));  // sender p6 silent
  // BB phases: phase j occupies rounds 3(j-1)+2 .. 3(j-1)+4; corrupt the
  // leader right before its relay round (local round 3).
  parts.push_back(std::make_unique<adv::AdaptiveLeaderCrash>(
      /*first_phase_round=*/4, /*phase_len=*/3, spec.n, /*budget=*/2));
  adv::Composite adv(std::move(parts));
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(5)), 6}, adv);
  EXPECT_EQ(res.f(), 3u);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_TRUE(res.decision().is_bottom());  // sender never spoke
  // Leaders p0 and p1 initiated phases before being killed; p2 finished.
  EXPECT_GE(res.nonsilent_leaders(), 1u);
}

TEST(Bb, IdkCertificateRelayAcrossPhases) {
  // NOTE-1 regression: processes that adopt an idk certificate in an early
  // phase reply with it later; a correct leader must be able to relay it
  // (generalized line 23) so late value-less processes return a valid value.
  auto spec = RunSpec::for_t(2);  // n = 5
  // Sender p0 silent; additionally crash p1 mid-run so p1's phase (phase 2)
  // is dead and phase 3's leader p2 must rely on relayed certificates.
  std::vector<std::unique_ptr<Adversary>> parts;
  parts.push_back(
      std::make_unique<adv::CrashAdversary>(std::vector<ProcessId>{0}));
  parts.push_back(std::make_unique<adv::CrashAdversary>(
      std::vector<ProcessId>{1}, /*from_round=*/3));
  adv::Composite adv(std::move(parts));
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(9)), 0}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_TRUE(res.decision().is_bottom());
}

TEST(Bb, Note1PartialIdkRelayHealsTheSplit) {
  // NOTE-1 end to end: the sender is silent and the Byzantine phase-1
  // leader mints a real idk certificate but reveals it only to the two
  // highest-id correct processes. The next correct value-less leader (p1)
  // receives that certificate as a reply and must relay it — the
  // generalized Algorithm 2 line 23 — after which everyone holds a valid
  // value, the weak BA decides the certified idk, and BB outputs ⊥.
  auto spec = RunSpec::for_t(2);  // n = 5
  std::vector<std::unique_ptr<Adversary>> parts;
  parts.push_back(std::make_unique<adv::CrashAdversary>(
      std::vector<ProcessId>{4}));  // silent sender p4
  parts.push_back(
      std::make_unique<adv::BbPartialRelay>(spec.instance, 1, /*reach=*/2));
  adv::Composite adv(std::move(parts));
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(9)), 4}, adv);
  EXPECT_EQ(res.f(), 2u);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_TRUE(res.decision().is_bottom());
  // p1 could not have minted a fresh certificate (the reached processes
  // answered with the certificate instead of idk, leaving only 1 < t+1 idk
  // partials), so termination here proves the relay path ran.
  for (const auto& s : res.outcomes) {
    if (!s) continue;
    EXPECT_TRUE(s->decided);
  }
}

TEST(Bb, DecisionNeverFabricatedForCorrectSender) {
  // Sweep senders and crash patterns: with a correct sender the decision is
  // always exactly the sender's value (never ⊥, never anything else).
  for (std::uint32_t t : {1u, 2u, 3u}) {
    auto spec = RunSpec::for_t(t);
    for (ProcessId sender = 0; sender < spec.n; sender += 2) {
      std::vector<ProcessId> victims;
      for (ProcessId v = 0; victims.size() < t && v < spec.n; ++v) {
        if (v != sender) victims.push_back(v);
      }
      adv::CrashAdversary adv(victims);
      const auto res = kBb.run(
          spec, {kBb.prepare(spec.n, Value(1000 + sender)), sender}, adv);
      EXPECT_TRUE(res.all_decided()) << "t=" << t << " sender=" << sender;
      EXPECT_TRUE(res.agreement()) << "t=" << t << " sender=" << sender;
      EXPECT_EQ(res.decision().value, Value(1000 + sender))
          << "t=" << t << " sender=" << sender;
    }
  }
}

TEST(Bb, RoundScheduleIsExact) {
  EXPECT_EQ(bb::BbProcess::total_rounds(5, 2),
            1 + 3 * 5 + wba::WeakBaProcess::total_rounds(5, 2));
  EXPECT_EQ(bb::BbProcess::leader_of(1, 5), 0u);
  EXPECT_EQ(bb::BbProcess::leader_of(5, 5), 4u);
}

}  // namespace
}  // namespace mewc
