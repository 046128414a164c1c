// A_fallback (Dolev-Strong based strong BA) and the classic single-sender
// Dolev-Strong BB baseline: agreement, strong unanimity, termination and
// equivocation handling under crash and active-Byzantine adversaries.
#include "ba/fallback/dolev_strong.hpp"

#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"
#include "crypto/multisig.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kFallbackBa = *harness::find_driver("fallback");
const harness::ProtocolDriver& kDsBb = *harness::find_driver("ds-bb");

std::vector<WireValue> plain_inputs(std::initializer_list<std::uint64_t> raws) {
  std::vector<WireValue> out;
  for (auto r : raws) out.push_back(WireValue::plain(Value(r)));
  return out;
}

std::vector<WireValue> uniform_inputs(std::uint32_t n, std::uint64_t raw) {
  return std::vector<WireValue>(n, WireValue::plain(Value(raw)));
}

TEST(FallbackBa, UnanimousFailureFree) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res = kFallbackBa.run(spec, {uniform_inputs(5, 9)}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(9));
}

TEST(FallbackBa, MixedInputsAgreeOnSomeInput) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res =
      kFallbackBa.run(spec, {plain_inputs({1, 2, 1, 2, 1})}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(1));  // raw-majority 3 vs 2
}

TEST(FallbackBa, UnanimityUnderMaximalCrash) {
  // f = t silent processes: the remaining t+1 correct slots still dominate.
  auto spec = RunSpec::for_t(3);  // n = 7
  adv::CrashAdversary adv({0, 2, 4});
  const auto res = kFallbackBa.run(spec, {uniform_inputs(7, 5)}, adv);
  EXPECT_EQ(res.f(), 3u);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(5));
}

TEST(FallbackBa, AgreementUnderCrashWithSplitInputs) {
  auto spec = RunSpec::for_t(3);
  adv::CrashAdversary adv({1, 3, 5});
  const auto res =
      kFallbackBa.run(spec, {plain_inputs({0, 0, 0, 1, 1, 1, 1})}, adv);
  EXPECT_TRUE(res.agreement());
  // Surviving slots: p0=0, p2=0, p4=1, p6=1 — deterministic tie-break on
  // the smaller raw.
  EXPECT_EQ(res.decision().value, Value(0));
}

TEST(FallbackBa, MidRunCrashKeepsAgreement) {
  auto spec = RunSpec::for_t(3);
  adv::CrashAdversary adv({0, 1}, /*from_round=*/2);
  const auto res =
      kFallbackBa.run(spec, {plain_inputs({7, 7, 7, 8, 8, 7, 8})}, adv);
  EXPECT_TRUE(res.agreement());
}

/// Byzantine DS sender: starts its own instance with different values for
/// different recipients (classic equivocation).
class DsEquivocator final : public Adversary {
 public:
  DsEquivocator(std::uint64_t instance, ProcessId who, Value v0, Value v1)
      : instance_(instance), who_(who), v0_(v0), v1_(v1) {}

  void setup(AdversaryControl& ctrl) override { ctrl.corrupt(who_); }

  void act(Round r, AdversaryControl& ctrl) override {
    if (r != 1) return;
    const auto& key = ctrl.bundle(who_).signer();
    auto relay_for = [&](Value v) {
      auto msg = std::make_shared<fallback::DsRelayMsg>();
      msg->instance = who_;
      msg->value = WireValue::plain(v);
      msg->chain = aggregate_start(
          ctrl.crypto().pki(),
          key.sign(fallback::ds_relay_digest(instance_, who_, msg->value)));
      return msg;
    };
    const auto m0 = relay_for(v0_);
    const auto m1 = relay_for(v1_);
    for (ProcessId p = 0; p < ctrl.n(); ++p) {
      ctrl.send_as(who_, p, (p % 2 == 0) ? PayloadPtr(m0) : PayloadPtr(m1));
    }
  }

 private:
  std::uint64_t instance_;
  ProcessId who_;
  Value v0_;
  Value v1_;
};

TEST(FallbackBa, EquivocatingInstanceIsNeutralized) {
  // The equivocator's slot must extract two values at every correct process
  // (hence ⊥), and the correct slots decide the run.
  auto spec = RunSpec::for_t(2);  // n = 5
  DsEquivocator adv(spec.instance, 0, Value(100), Value(200));
  const auto res = kFallbackBa.run(spec, {uniform_inputs(5, 3)}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(3));
}

TEST(FallbackBa, DecideAtMostOnceAndSlotsConsistent) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res = kFallbackBa.run(spec, {uniform_inputs(5, 4)}, adv);
  for (const auto& o : res.outcomes) {
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->decision.value, Value(4));
  }
}

// ---------------------------------------------------------------------------
// Classic Dolev-Strong BB baseline
// ---------------------------------------------------------------------------

TEST(DsBbBaseline, CorrectSenderDelivers) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res = kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(77)), 1}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(77));
}

TEST(DsBbBaseline, SilentSenderYieldsBottomEverywhere) {
  auto spec = RunSpec::for_t(2);
  adv::CrashAdversary adv({0});
  const auto res = kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(77)), 0}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_TRUE(res.decision().is_bottom());
}

TEST(DsBbBaseline, EquivocatingSenderStillAgrees) {
  auto spec = RunSpec::for_t(2);
  DsEquivocator adv(spec.instance, 2, Value(5), Value(6));
  const auto res = kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(5)), 2}, adv);
  EXPECT_TRUE(res.agreement());  // all ⊥ or all the same extracted value
}

TEST(DsBbBaseline, CorrectSenderUnderMaxCrashOfOthers) {
  auto spec = RunSpec::for_t(3);  // n = 7
  adv::CrashAdversary adv({1, 2, 3});
  const auto res = kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(12)), 0}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(12));
}

TEST(DsBbBaseline, QuadraticCostEvenFailureFree) {
  // The baseline motivation: Θ(n^2) words with f = 0, where the adaptive BB
  // costs O(n).
  auto spec = RunSpec::for_t(5);  // n = 11
  adv::NullAdversary adv;
  const auto res = kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(1)), 0}, adv);
  // Sender broadcast (n words min) plus every process relaying once.
  EXPECT_GE(res.meter.words_correct,
            static_cast<std::uint64_t>(spec.n) * (spec.n - 1));
}

// ---------------------------------------------------------------------------
// Direct engine unit tests: the Dolev-Strong acceptance rules.
// ---------------------------------------------------------------------------

class DsEngineUnit : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kT = 2;
  static constexpr std::uint32_t kN = 5;
  static constexpr std::uint64_t kInstance = 1;

  DsEngineUnit() : family_(kN, kT) {
    for (ProcessId p = 0; p < kN; ++p) {
      bundles_.push_back(family_.issue_bundle(p));
    }
  }

  ProtocolContext ctx(ProcessId id) {
    ProtocolContext c;
    c.id = id;
    c.n = kN;
    c.t = kT;
    c.instance = kInstance;
    c.crypto = &family_;
    c.keys = &bundles_[id];
    return c;
  }

  /// A relay for `instance` carrying `v` signed by `signers`.
  PayloadPtr relay(ProcessId instance, const WireValue& v,
                   std::initializer_list<ProcessId> signers) {
    auto m = std::make_shared<fallback::DsRelayMsg>();
    m->instance = instance;
    m->value = v;
    const Digest d = fallback::ds_relay_digest(kInstance, instance, v);
    bool first = true;
    for (ProcessId s : signers) {
      const Signature sig = bundles_[s].signer().sign(d);
      if (first) {
        m->chain = aggregate_start(family_.pki(), sig);
        first = false;
      } else {
        aggregate_add(family_.pki(), m->chain, sig);
      }
    }
    return m;
  }

  static Message msg(ProcessId from, Round r, PayloadPtr body) {
    Message m;
    m.from = from;
    m.to = 0;
    m.round = r;
    m.words = Message::cost_of(*body);
    m.body = std::move(body);
    return m;
  }

  ThresholdFamily family_;
  std::vector<KeyBundle> bundles_;
};

TEST_F(DsEngineUnit, AcceptsRoundOneSingleSignature) {
  fallback::DolevStrongEngine e(ctx(0));
  e.activate();
  const WireValue v = WireValue::plain(Value(3));
  std::vector<Message> inbox = {msg(1, 1, relay(1, v, {1}))};
  e.on_receive(1, inbox);
  EXPECT_EQ(e.slot(1), v);
}

TEST_F(DsEngineUnit, RejectsUndersizedChainInLaterRound) {
  fallback::DolevStrongEngine e(ctx(0));
  e.activate();
  const WireValue v = WireValue::plain(Value(3));
  // Round 2 requires two distinct signers; only the owner signed.
  std::vector<Message> inbox = {msg(1, 2, relay(1, v, {1}))};
  e.on_receive(2, inbox);
  EXPECT_TRUE(e.slot(1).is_bottom());
}

TEST_F(DsEngineUnit, RejectsChainMissingInstanceOwner) {
  fallback::DolevStrongEngine e(ctx(0));
  e.activate();
  const WireValue v = WireValue::plain(Value(3));
  // Two signers, neither is the claimed instance owner 1.
  std::vector<Message> inbox = {msg(2, 2, relay(1, v, {2, 3}))};
  e.on_receive(2, inbox);
  EXPECT_TRUE(e.slot(1).is_bottom());
}

TEST_F(DsEngineUnit, RejectsChainSignedOverOtherValue) {
  fallback::DolevStrongEngine e(ctx(0));
  e.activate();
  const WireValue v = WireValue::plain(Value(3));
  auto m = std::static_pointer_cast<const fallback::DsRelayMsg>(
      relay(1, v, {1, 2}));
  auto tampered = std::make_shared<fallback::DsRelayMsg>(*m);
  tampered->value = WireValue::plain(Value(4));  // chain covers 3, not 4
  std::vector<Message> inbox = {msg(1, 2, tampered)};
  e.on_receive(2, inbox);
  EXPECT_TRUE(e.slot(1).is_bottom());
}

TEST_F(DsEngineUnit, SecondValueProvesInstanceByzantine) {
  fallback::DolevStrongEngine e(ctx(0));
  e.activate();
  const WireValue a = WireValue::plain(Value(3));
  const WireValue b = WireValue::plain(Value(4));
  std::vector<Message> inbox = {msg(1, 1, relay(1, a, {1})),
                                msg(1, 1, relay(1, b, {1}))};
  e.on_receive(1, inbox);
  EXPECT_TRUE(e.slot(1).is_bottom());  // |W| = 2 extracts nothing
}

TEST_F(DsEngineUnit, AcceptedValueIsRelayedWithOwnSignature) {
  fallback::DolevStrongEngine e(ctx(0));
  e.activate();
  const WireValue v = WireValue::plain(Value(3));
  std::vector<Message> inbox = {msg(1, 1, relay(1, v, {1}))};
  e.on_receive(1, inbox);
  Outbox out(kN);
  e.on_send(2, out);
  // Own instance start was round 1; round 2 carries the relay of p1's
  // value with our signature appended.
  bool found = false;
  for (const auto& [to, body] : out.sends()) {
    const auto* r = payload_cast<fallback::DsRelayMsg>(body);
    if (r == nullptr || r->instance != 1) continue;
    EXPECT_TRUE(r->chain.signers.contains(0));
    EXPECT_TRUE(r->chain.signers.contains(1));
    EXPECT_TRUE(aggregate_verify(family_.pki(), r->chain));
    found = true;
    break;
  }
  EXPECT_TRUE(found);
}

TEST_F(DsEngineUnit, InactiveEngineIgnoresEverything) {
  fallback::DolevStrongEngine e(ctx(0));
  const WireValue v = WireValue::plain(Value(3));
  std::vector<Message> inbox = {msg(1, 1, relay(1, v, {1}))};
  e.on_receive(1, inbox);
  EXPECT_TRUE(e.slot(1).is_bottom());
  Outbox out(kN);
  e.on_send(1, out);
  EXPECT_TRUE(out.sends().empty());
}

TEST_F(DsEngineUnit, NonBroadcasterDoesNotStartOwnInstance) {
  fallback::DolevStrongEngine e(ctx(0));
  e.activate();
  e.set_broadcaster(false);
  Outbox out(kN);
  e.on_send(1, out);
  EXPECT_TRUE(out.sends().empty());
}

// ---------------------------------------------------------------------------
// Parameterized sweep: sizes x crash patterns, unanimity must always hold.
// ---------------------------------------------------------------------------

struct SweepParam {
  std::uint32_t t;
  std::uint32_t f;
};

class FallbackSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FallbackSweep, UnanimityAndAgreementUnderCrash) {
  const auto [t, f] = GetParam();
  auto spec = RunSpec::for_t(t);
  std::vector<ProcessId> victims;
  for (std::uint32_t i = 0; i < f; ++i) victims.push_back(i * 2 % spec.n);
  adv::CrashAdversary adv(victims);
  const auto res =
      kFallbackBa.run(spec, {uniform_inputs(spec.n, 42)}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(42));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FallbackSweep,
    ::testing::Values(SweepParam{1, 0}, SweepParam{1, 1}, SweepParam{2, 0},
                      SweepParam{2, 1}, SweepParam{2, 2}, SweepParam{3, 0},
                      SweepParam{3, 2}, SweepParam{3, 3}, SweepParam{5, 0},
                      SweepParam{5, 3}, SweepParam{5, 5}),
    [](const auto& info) {
      return "t" + std::to_string(info.param.t) + "_f" +
             std::to_string(info.param.f);
    });

}  // namespace
}  // namespace mewc
