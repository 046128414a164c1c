// The paper's appendix, executable: one named test per lemma, asserting
// the lemma's statement over adversarial runs (and, where a lemma's
// premise is unreachable by any real adversary, over omnisciently crafted
// inputs). Lemma numbers follow the arXiv v2 text.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"
#include "ba/weak_ba/weak_ba.hpp"
#include "check/runner.hpp"
#include "common/rng.hpp"

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

std::vector<WireValue> plain_inputs(std::uint32_t n) {
  std::vector<WireValue> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(WireValue::plain(Value(100 + i)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Appendix A — adaptive Byzantine Broadcast.
// ---------------------------------------------------------------------------

TEST(LemmaSuite, Lemma9_NonSilentCorrectLeaderPhaseRescuesEveryone) {
  // "If a phase is non-silent and its leader is correct, then all correct
  // processes return a valid value." Observable: with a silent sender, the
  // FIRST correct leader's phase gives everyone a value, so exactly one
  // vetting phase is ever non-silent.
  auto spec = RunSpec::for_t(3);
  adv::CrashAdversary adv({0});  // sender p0 silent; leader p0's phase dead
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(5)), 0}, adv);
  EXPECT_TRUE(res.agreement());
  // Phase 1's leader is the crashed sender; phase 2's leader p1 rescues.
  EXPECT_EQ(res.nonsilent_leaders(), 1u);
}

TEST(LemmaSuite, Lemma10_CorrectSenderPreventsIdkCertificates) {
  // "If all correct processes invoke a phase with value v != ⊥, there does
  // not exist a value signed by t+1 processes." With a correct sender,
  // every correct process has the value from round 1, so no idk message is
  // ever sent — let alone certified.
  for (std::uint32_t f : {0u, 2u}) {
    auto spec = RunSpec::for_t(5);
    adv::CrashAdversary adv(first_f(f));  // sender is n-1
    const auto res =
        kBb.run(spec, {kBb.prepare(spec.n, Value(5)), spec.n - 1}, adv);
    EXPECT_TRUE(res.agreement());
    EXPECT_EQ(res.meter.words_by_kind().count("bb.idk"), 0u) << "f=" << f;
  }
}

TEST(LemmaSuite, Lemma11_AllCorrectEnterWeakBaWithValidInputs) {
  // "All correct processes execute line 9 with a valid initial value."
  // Observable consequence: the weak BA (and hence BB) always terminates
  // with a BB_valid-or-⊥ decision, even for the nastiest sender behaviors.
  auto spec = RunSpec::for_t(2);
  for (auto mode : {adv::SenderMode::kSilent, adv::SenderMode::kEquivocate,
                    adv::SenderMode::kPartial}) {
    adv::BbEquivocatingSender adv(1, spec.instance, mode, Value(5), Value(6),
                                  2);
    const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(5)), 1}, adv);
    EXPECT_TRUE(res.all_decided());
    EXPECT_TRUE(res.agreement());
  }
}

TEST(LemmaSuite, Lemma12_Validity_CorrectSenderValueAlwaysWins) {
  // "If sender is correct, then all correct processes decide v_sender."
  for (std::uint32_t t : {2u, 3u, 5u}) {
    auto spec = RunSpec::for_t(t);
    adv::CrashAdversary adv(first_f(t));  // maximal crash, sender spared
    const auto res =
        kBb.run(spec, {kBb.prepare(spec.n, Value(31)), spec.n - 1}, adv);
    EXPECT_TRUE(res.all_decided()) << "t=" << t;
    EXPECT_TRUE(res.agreement()) << "t=" << t;
    EXPECT_EQ(res.decision().value, Value(31)) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Appendix B — adaptive weak BA.
// ---------------------------------------------------------------------------

TEST(LemmaSuite, Lemma14_UpdatedDecisionsAreValid) {
  // "If a correct process updates decision during invokePhase, then v is a
  // valid decision value." The Byzantine cert-split leader drives the most
  // adversarial decision path; the decided value must pass the predicate.
  auto spec = RunSpec::for_t(2);
  adv::WbaCertSplit adv(spec.instance, 1, WireValue::plain(Value(44)), 0, 1);
  const auto res = kWeakBa.run(spec, {plain_inputs(spec.n)}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_TRUE(AlwaysValid{}.validate(res.decision()));
}

TEST(LemmaSuite, Lemma15_AtMostOneFinalizeCertificateEver) {
  // "All correct processes that update decision during invokePhase return
  // the same decision; at most one finalize certificate can be formed."
  // The cert-split adversary plus later honest phases is exactly the
  // scenario the lemma guards: the early decider and late deciders must
  // agree on the same finalized value.
  for (std::uint32_t recipients : {1u, 2u, 3u}) {
    auto spec = RunSpec::for_t(3);
    adv::WbaCertSplit adv(spec.instance, 1, WireValue::plain(Value(50)), 1,
                          recipients);
    const auto res = kWeakBa.run(spec, {plain_inputs(spec.n)}, adv);
    EXPECT_TRUE(res.all_decided()) << recipients;
    EXPECT_TRUE(res.agreement()) << recipients;
    EXPECT_EQ(res.decision().value, Value(50)) << recipients;
  }
}

TEST(LemmaSuite, Lemma15_AnyTwoCommitQuorumCertificatesShareTplus1Signers) {
  // The arithmetic heart of Lemma 15: two sets of ⌈(n+t+1)/2⌉ signers
  // intersect in at least t+1 processes, hence at least one correct one —
  // which is why two conflicting finalize certificates can never both form.
  // Checked three ways across the grid n = 2t+1 … 2t+9: the pigeonhole
  // worst case, real certificates combined from the two extremal subsets,
  // and randomized quorum subsets.
  for (std::uint32_t t = 1; t <= 6; ++t) {
    for (std::uint32_t n = 2 * t + 1; n <= 2 * t + 9; ++n) {
      const std::uint32_t q = commit_quorum(n, t);
      // Worst-case overlap of any two q-subsets of n is 2q - n.
      ASSERT_GE(2 * q, n);
      EXPECT_GE(2 * q - n, t + 1) << "n=" << n << " t=" << t;
    }
  }

  // Constructive: the two maximally-disjoint quorums, as actual threshold
  // certificates over the same digest. Both must combine (they are real
  // quorums), a sub-quorum must not, and their signer intersection is
  // exactly the pigeonhole bound.
  for (std::uint32_t t : {2u, 3u}) {
    for (std::uint32_t n : {2 * t + 1, 2 * t + 4, 2 * t + 9}) {
      ThresholdFamily family(n, t);
      const std::uint32_t q = commit_quorum(n, t);
      const Digest digest =
          wba::finalize_digest(/*instance=*/9, /*phase=*/1, Digest{0xabc});
      const auto cert_from = [&](std::uint32_t first, std::uint32_t count)
          -> std::optional<ThresholdSig> {
        std::vector<PartialSig> parts;
        for (std::uint32_t p = first; p < first + count; ++p) {
          parts.push_back(family.scheme(q)
                              .issue_share(static_cast<ProcessId>(p))
                              .partial_sign(digest));
        }
        return family.scheme(q).combine(parts);
      };
      const auto low = cert_from(0, q);        // signers {0 .. q-1}
      const auto high = cert_from(n - q, q);   // signers {n-q .. n-1}
      ASSERT_TRUE(low.has_value()) << "n=" << n << " t=" << t;
      ASSERT_TRUE(high.has_value()) << "n=" << n << " t=" << t;
      EXPECT_TRUE(family.scheme(q).verify(*low));
      EXPECT_TRUE(family.scheme(q).verify(*high));
      // Overlap of {0..q-1} and {n-q..n-1} is 2q - n: even the extremal
      // pair shares t+1 signers.
      EXPECT_GE(2 * q - n, t + 1) << "n=" << n << " t=" << t;
      // One signer short of a quorum must not certify.
      EXPECT_FALSE(cert_from(0, q - 1).has_value()) << "n=" << n;
    }
  }

  // Randomized quorum subsets: no draw can dodge the intersection bound.
  Rng rng(0x15ec7);
  for (std::uint32_t t : {2u, 4u}) {
    for (std::uint32_t n = 2 * t + 1; n <= 2 * t + 9; ++n) {
      const std::uint32_t q = commit_quorum(n, t);
      const auto quorum_subset = [&] {
        std::vector<std::uint32_t> ids(n);
        std::iota(ids.begin(), ids.end(), 0u);
        for (std::uint32_t i = 0; i < q; ++i) {
          std::swap(ids[i], ids[i + rng.below(n - i)]);
        }
        return std::set<std::uint32_t>(ids.begin(), ids.begin() + q);
      };
      for (int trial = 0; trial < 25; ++trial) {
        const auto a = quorum_subset();
        const auto b = quorum_subset();
        std::uint32_t common = 0;
        for (const std::uint32_t id : a) common += b.count(id);
        EXPECT_GE(common, t + 1) << "n=" << n << " t=" << t;
      }
    }
  }
}

TEST(LemmaSuite, Lemma15_RecordedStreamsCarryAtMostOneFinalizeCertificate) {
  // Lemma 15 end to end, over recorded campaign streams: in every run,
  // every finalize-shaped certificate a correct process ever puts on the
  // wire — in <finalized>, in <help> replies, or attached to <fallback>
  // announcements — certifies one single (phase, value). The adversaries
  // below are the ones that mint, withhold, split and leak certificates.
  constexpr std::uint32_t kN = 7, kT = 3;
  constexpr std::uint64_t kInstance = 1;  // run_cell's harness default
  std::size_t runs_with_finalize = 0;
  for (const char* adversary : {"none", "crash", "cert-split", "poison-help",
                                "covert-spam", "help-spam"}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      check::CellSpec cell;
      cell.protocol = check::Protocol::kWeakBa;
      cell.n = kN;
      cell.t = kT;
      cell.f = kT;
      cell.adversary = adversary;
      cell.seed = seed;
      const auto record = check::run_cell(cell, {});

      std::set<std::uint64_t> finalize_digests;
      std::set<std::uint64_t> finalized_values;
      const auto note = [&](const ThresholdSig& qc, std::uint64_t phase,
                            const WireValue& v) {
        // A finalize certificate is a commit-quorum signature on the
        // finalize digest of its claimed (phase, value); anything else
        // (commit QCs, fallback QCs, garbage) does not qualify.
        if (qc.k != commit_quorum(kN, kT)) return;
        if (qc.digest !=
            wba::finalize_digest(kInstance, phase, v.content_digest())) {
          return;
        }
        finalize_digests.insert(qc.digest.bits);
        finalized_values.insert(v.content_digest().bits);
      };
      for (const auto& m : record.log.messages) {
        if (!m.correct) continue;  // Byzantine bytes need not be coherent
        if (const auto* fz = payload_cast<wba::FinalizedMsg>(m.body)) {
          note(fz->qc, fz->phase, fz->value);
        } else if (const auto* h = payload_cast<wba::HelpMsg>(m.body)) {
          note(h->decide_proof, h->proof_phase, h->value);
        } else if (const auto* fb = payload_cast<wba::FallbackMsg>(m.body)) {
          if (fb->has_decision) note(fb->decide_proof, fb->proof_phase,
                                     fb->value);
        }
      }
      EXPECT_LE(finalize_digests.size(), 1u)
          << adversary << " seed " << seed;
      EXPECT_LE(finalized_values.size(), 1u)
          << adversary << " seed " << seed;
      runs_with_finalize += finalize_digests.size();
    }
  }
  // Non-vacuity: the happy paths finalize out loud.
  EXPECT_GT(runs_with_finalize, 0u);
}

TEST(LemmaSuite, Lemma15_TwoPhaseConflictCannotDoubleFinalize) {
  // The strongest Lemma 15 attack we can mount: commit v in phase 1 (real
  // certificate, revealed to 2 of 5 correct processes, finalize withheld),
  // then drive w through phase 2 using the 3 correct processes that never
  // saw the v-commit plus all 4 corrupted shares. Both COMMIT certificates
  // form — the paper allows that — but only one FINALIZE can, and everyone
  // must follow it.
  auto spec = RunSpec::for_t(4);  // n = 9, quorum 7
  adv::WbaTwoPhaseConflict adv(spec.instance, 1, WireValue::plain(Value(71)),
                               WireValue::plain(Value(72)),
                               /*extra=*/2, /*reveal=*/2);
  const auto res = kWeakBa.run(spec, {plain_inputs(spec.n)}, adv);
  EXPECT_TRUE(adv.committed_v());   // the v-commit certificate was real
  EXPECT_TRUE(adv.committed_w());   // and so was the conflicting w-commit
  EXPECT_TRUE(adv.finalized_w());   // w finalized (v never can now)
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(72));
}

TEST(LemmaSuite, Lemma15_WideCommitRevealBlocksTheConflictingCommit) {
  // Same attack, but the v-commit reaches 4 of the 5 correct processes:
  // now at least (n-t+1)/2 correct are locked on v, the w-commit quorum is
  // unreachable, and the run degrades safely into the fallback.
  auto spec = RunSpec::for_t(4);
  adv::WbaTwoPhaseConflict adv(spec.instance, 1, WireValue::plain(Value(71)),
                               WireValue::plain(Value(72)),
                               /*extra=*/2, /*reveal=*/4);
  const auto res = kWeakBa.run(spec, {plain_inputs(spec.n)}, adv);
  EXPECT_TRUE(adv.committed_v());
  EXPECT_FALSE(adv.committed_w());  // the Section 6 arithmetic held
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
}

TEST(LemmaSuite, Lemma16_CorrectLeaderPhaseDecidesEveryoneInRegime) {
  // "If a correct leader invokes invokePhase in phase k and f < (n-t-1)/2,
  // then all correct processes return the same valid decision by the end
  // of the phase." Crash the first f leaders: everyone decides in phase
  // f+1 exactly.
  auto spec = RunSpec::for_t(5);  // boundary f <= 2
  for (std::uint32_t f = 0; f <= 2; ++f) {
    adv::CrashAdversary adv(first_f(f));
    const auto res = kWeakBa.run(spec, {plain_inputs(spec.n)}, adv);
    for (const auto& s : res.outcomes) {
      if (!s) continue;
      EXPECT_EQ(s->decided_phase, f + 1) << "f=" << f;
    }
  }
}

TEST(LemmaSuite, Lemma17_FallbackParticipationIsAllOrNothing) {
  // "If some correct process executes the fallback algorithm, all correct
  // processes do so." Sweep fallback-triggering crash patterns.
  for (std::uint32_t t : {2u, 3u, 4u}) {
    auto spec = RunSpec::for_t(t);
    adv::CrashAdversary adv(first_f(t));
    const auto res = kWeakBa.run(spec, {plain_inputs(spec.n)}, adv);
    bool any = false, all = true;
    for (const auto& s : res.outcomes) {
      if (!s) continue;
      any |= s->fallback_participant;
      all &= s->fallback_participant;
    }
    EXPECT_TRUE(any) << "t=" << t;   // f = t is beyond the boundary
    EXPECT_EQ(any, all) << "t=" << t;
  }
}

TEST(LemmaSuite, Lemma19_PreFallbackDecisionSurvivesTheFallback) {
  // "If some correct process decides v before executing the fallback
  // algorithm, then all correct processes decide v." Cert-split with one
  // early decider plus enough silent corruption to force the fallback.
  auto spec = RunSpec::for_t(2);  // n = 5, boundary f <= 1
  adv::WbaCertSplit adv(spec.instance, 1, WireValue::plain(Value(61)),
                        /*extra=*/1, /*finalize_recipients=*/1);
  // f = 2 > boundary: the run must fall back, and the early decider's
  // value must win through the safety-window adoption.
  const auto res = kWeakBa.run(spec, {plain_inputs(spec.n)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(61));
}

TEST(LemmaSuite, Lemma19_PoisonHelpCannotStrandTheLoneDecider) {
  // NOTE-2 regression (the sharpest Lemma 19 corner): with f = t the
  // coalition mints a finalize certificate no correct process ever saw
  // (half the correct processes committed, none decided), lets everyone
  // enter the help round undecided, and then discloses the proof through a
  // <help> message to EXACTLY ONE process — after that process already
  // broadcast its decision-less fallback certificate. Without the
  // decide-time re-broadcast inside the window, the lone decider keeps the
  // Byzantine-proposed value while the fallback majority decides the
  // common input: a genuine agreement violation in the pseudocode as
  // literally written. The completion (weak_ba.cpp NOTE-2) must drag
  // everyone to the disclosed value instead.
  auto spec = RunSpec::for_t(4);  // n = 9, quorum 7, f = 3 (< t, but past
                                  // the boundary 2: fallback regime)
  adv::WbaCertSplit adv(spec.instance, 1, WireValue::plain(Value(77)),
                        /*extra=*/2, /*finalize_recipients=*/0,
                        /*poison_help=*/true);
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(5))}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  // The disclosed decision must win everywhere (not just at the victim).
  EXPECT_EQ(res.decision().value, Value(77));
  std::uint32_t deciders_77 = 0;
  for (const auto& s : res.outcomes) {
    if (s && s->decision.value == Value(77)) ++deciders_77;
  }
  EXPECT_EQ(deciders_77, spec.n - res.f());
}

TEST(LemmaSuite, Lemma21_Termination_EveryCorrectProcessDecides) {
  for (std::uint32_t t : {1u, 2u, 3u, 4u}) {
    for (std::uint32_t f = 0; f <= t; ++f) {
      auto spec = RunSpec::for_t(t);
      adv::CrashAdversary adv(first_f(f));
      const auto res = kWeakBa.run(spec, {plain_inputs(spec.n)}, adv);
      EXPECT_TRUE(res.all_decided()) << "t=" << t << " f=" << f;
    }
  }
}

TEST(LemmaSuite, Lemma22_BottomOnlyWhenMultipleValidValuesExist) {
  // Unique validity, contrapositive: with a predicate the adversary cannot
  // satisfy for any second value, ⊥ never appears — even in the deepest
  // fallback.
  auto spec = RunSpec::for_t(3);
  ThresholdFamily mint(spec.n, spec.t, spec.backend, spec.seed);
  std::vector<PartialSig> ps;
  for (ProcessId p = 0; p < spec.t + 1; ++p) {
    ps.push_back(mint.scheme(spec.t + 1).issue_share(p).partial_sign(
        input_attestation_digest(spec.instance, Value(9))));
  }
  const WireValue attested =
      WireValue::certified(Value(9), *mint.scheme(spec.t + 1).combine(ps));
  harness::PredicateFactory factory = [](const ThresholdFamily& fam,
                                         std::uint64_t instance) {
    return std::make_shared<const InputCertified>(fam, instance);
  };
  adv::CrashAdversary adv(first_f(3));
  harness::RunInputs inputs;
  inputs.values.assign(spec.n, attested);
  inputs.predicate = factory;
  const auto res = kWeakBa.run(spec, inputs, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_FALSE(res.decision().is_bottom());
  EXPECT_EQ(res.decision().value, Value(9));
}

TEST(LemmaSuite, Lemma23_DecideAtMostOnce) {
  // "All correct processes decide at most once." Omniscient premise: feed
  // a process two finalize certificates for different phases/values (a
  // real adversary cannot mint the second, but the guard must hold
  // regardless). The first decision sticks.
  constexpr std::uint32_t kT = 2, kN = 5, kInstance = 8;
  ThresholdFamily family(kN, kT);
  std::vector<KeyBundle> bundles;
  for (ProcessId p = 0; p < kN; ++p) bundles.push_back(family.issue_bundle(p));
  ProtocolContext ctx;
  ctx.id = 3;
  ctx.n = kN;
  ctx.t = kT;
  ctx.instance = kInstance;
  ctx.crypto = &family;
  ctx.keys = &bundles[3];
  wba::WeakBaProcess proc(ctx, std::make_shared<const AlwaysValid>(),
                          WireValue::plain(Value(1)));

  auto finalize_for = [&](std::uint64_t phase, Value v) {
    const WireValue wv = WireValue::plain(v);
    const std::uint32_t q = commit_quorum(kN, kT);
    std::vector<PartialSig> parts;
    for (ProcessId p = 0; p < q; ++p) {
      parts.push_back(family.scheme(q).issue_share(p).partial_sign(
          wba::finalize_digest(kInstance, phase, wv.content_digest())));
    }
    auto m = std::make_shared<wba::FinalizedMsg>();
    m->phase = phase;
    m->value = wv;
    m->qc = *family.scheme(q).combine(parts);
    return m;
  };
  auto deliver = [&](Round r, std::uint64_t phase, Value v,
                     ProcessId leader) {
    Outbox out(kN);
    proc.on_send(r, out);
    Message m;
    m.from = leader;
    m.to = 3;
    m.round = r;
    m.body = finalize_for(phase, v);
    m.words = 1;
    std::vector<Message> inbox = {m};
    proc.on_receive(r, inbox);
  };
  for (Round r = 1; r <= 4; ++r) {
    Outbox out(kN);
    proc.on_send(r, out);
    proc.on_receive(r, {});
  }
  deliver(5, 1, Value(7), /*leader=*/0);
  ASSERT_TRUE(proc.decided());
  ASSERT_EQ(proc.decision().value, Value(7));
  for (Round r = 6; r <= 9; ++r) {
    Outbox out(kN);
    proc.on_send(r, out);
    proc.on_receive(r, {});
  }
  deliver(10, 2, Value(8), /*leader=*/1);  // second "finalize": ignored
  EXPECT_EQ(proc.decision().value, Value(7));
  EXPECT_EQ(proc.stats().decided_phase, 1u);
}

// ---------------------------------------------------------------------------
// Section 6.1 / Section 7 — complexity lemmas.
// ---------------------------------------------------------------------------

TEST(LemmaSuite, Lemma6_NoFallbackBelowTheBoundary) {
  // "If f < (n-t-1)/2, correct processes never perform the fallback."
  for (std::uint32_t t : {4u, 6u, 8u}) {
    auto spec = RunSpec::for_t(t);
    const std::uint32_t boundary = spec.n - commit_quorum(spec.n, spec.t);
    for (std::uint32_t f = 0; f <= boundary; ++f) {
      adv::CrashAdversary adv(first_f(f));
      const auto res = kWeakBa.run(spec, {plain_inputs(spec.n)}, adv);
      EXPECT_FALSE(res.any_fallback()) << "t=" << t << " f=" << f;
    }
  }
}

TEST(LemmaSuite, Lemma8_FailureFreeAlgorithm5NeverFallsBack) {
  // "If f = 0, correct processes never perform the fallback algorithm."
  for (std::uint32_t t : {2u, 5u, 10u}) {
    auto spec = RunSpec::for_t(t);
    adv::NullAdversary adv;
    const auto res = kStrongBa.run(
        spec, {kStrongBa.prepare(spec.n, Value(t % 2))}, adv);
    EXPECT_FALSE(res.any_fallback()) << "t=" << t;
    EXPECT_TRUE(res.all_fast()) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Appendix C — Algorithm 5.
// ---------------------------------------------------------------------------

TEST(LemmaSuite, Lemma26_Agreement_HiddenCertificateCannotSplit) {
  // "All correct processes decide on the same value" — including when the
  // decide certificate reaches only some processes before the fallback.
  for (std::uint32_t reach : {1u, 2u, 4u}) {
    auto spec = RunSpec::for_t(2);
    adv::Alg5Withhold adv(spec.instance, adv::Alg5Mode::kHideDecide, reach);
    const auto res =
        kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, adv);
    EXPECT_TRUE(res.all_decided()) << reach;
    EXPECT_TRUE(res.agreement()) << reach;
    EXPECT_EQ(res.decision().value, Value(1)) << reach;
  }
}

TEST(LemmaSuite, Lemma27_Termination_AllAdversaries) {
  auto spec = RunSpec::for_t(3);
  for (auto mode : {adv::Alg5Mode::kSilent, adv::Alg5Mode::kSplitPropose,
                    adv::Alg5Mode::kHideDecide}) {
    adv::Alg5Withhold adv(spec.instance, mode, 1);
    std::vector<WireValue> mixed;
    for (std::uint32_t i = 0; i < spec.n; ++i) {
      mixed.push_back(WireValue::plain(Value(i % 2)));
    }
    const auto res = kStrongBa.run(spec, {mixed}, adv);
    EXPECT_TRUE(res.all_decided());
    EXPECT_TRUE(res.agreement());
  }
}

TEST(LemmaSuite, Lemma28_StrongUnanimity) {
  // "If all correct processes propose the same value v, the output is v."
  for (int bit : {0, 1}) {
    for (std::uint32_t f : {0u, 1u, 3u}) {
      auto spec = RunSpec::for_t(3);
      adv::CrashAdversary adv(first_f(f));
      const auto res =
          kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(bit))}, adv);
      EXPECT_EQ(res.decision().value, Value(bit))
          << "bit=" << bit << " f=" << f;
    }
  }
}

}  // namespace
}  // namespace mewc
