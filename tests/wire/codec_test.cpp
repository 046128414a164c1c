// Wire codec: byte-level round-trips for every protocol message, total
// decoding on malformed inputs, and full protocol runs with the network
// re-encoding and re-parsing every message.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/adversaries/fuzzer.hpp"
#include "ba/bb/bb.hpp"
#include "ba/fallback/dolev_strong.hpp"
#include "ba/harness.hpp"
#include "ba/strong_ba/strong_ba.hpp"
#include "ba/vector/interactive_consistency.hpp"
#include "ba/weak_ba/messages.hpp"
#include "common/rng.hpp"
#include "crypto/multisig.hpp"

namespace mewc {
namespace {

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");
const harness::ProtocolDriver& kStrongBa = *harness::find_driver("strong-ba");

class CodecTest : public ::testing::Test {
 protected:
  CodecTest() : family_(5, 2) {
    for (ProcessId p = 0; p < 5; ++p) {
      bundles_.push_back(family_.issue_bundle(p));
    }
  }

  Signature sig(ProcessId p = 1) {
    return bundles_[p].signer().sign(DigestBuilder("c").field(1).done());
  }
  PartialSig partial(ProcessId p = 1, std::uint32_t k = 3) {
    return bundles_[p].share(
        k).partial_sign(DigestBuilder("c").field(2).done());
  }
  ThresholdSig threshold() {
    std::vector<PartialSig> ps;
    for (ProcessId p = 0; p < 3; ++p) ps.push_back(partial(p));
    return *family_.scheme(3).combine(ps);
  }
  WireValue signed_value() { return WireValue::signed_by(Value(7), sig()); }
  WireValue certified_value() {
    return WireValue::certified(Value(8), threshold(), 3);
  }

  /// Encode, decode, and return the parsed payload (checked non-null).
  template <typename T>
  std::shared_ptr<const T> rt(const T& msg) {
    const auto bytes = wire::encode(msg);
    EXPECT_TRUE(bytes.has_value());
    PayloadPtr parsed = wire::decode(*bytes);
    EXPECT_NE(parsed, nullptr);
    auto typed = std::dynamic_pointer_cast<const T>(parsed);
    EXPECT_NE(typed, nullptr) << "decoded to a different type";
    return typed;
  }

  ThresholdFamily family_;
  std::vector<KeyBundle> bundles_;
};

TEST_F(CodecTest, WbaProposeRoundTrip) {
  wba::ProposeMsg m;
  m.phase = 3;
  m.value = signed_value();
  auto out = rt(m);
  EXPECT_EQ(out->phase, 3u);
  EXPECT_EQ(out->value, m.value);
  EXPECT_EQ(out->words(), m.words());
  EXPECT_EQ(out->logical_signatures(), m.logical_signatures());
}

TEST_F(CodecTest, WbaVoteRoundTrip) {
  wba::VoteMsg m;
  m.phase = 2;
  m.partial = partial();
  auto out = rt(m);
  EXPECT_EQ(out->partial.signer, m.partial.signer);
  EXPECT_EQ(out->partial.tag, m.partial.tag);
  EXPECT_EQ(out->partial.k, m.partial.k);
  EXPECT_TRUE(family_.scheme(3).verify_partial(out->partial));
}

TEST_F(CodecTest, WbaCommitRoundTrip) {
  wba::CommitMsg m;
  m.phase = 4;
  m.value = certified_value();
  m.level = 2;
  m.qc = threshold();
  auto out = rt(m);
  EXPECT_EQ(out->level, 2u);
  EXPECT_EQ(out->value, m.value);
  EXPECT_EQ(out->qc, m.qc);
}

TEST_F(CodecTest, WbaFinalizedAndDecideRoundTrip) {
  wba::FinalizedMsg f;
  f.phase = 1;
  f.value = WireValue::plain(Value(5));
  f.qc = threshold();
  EXPECT_EQ(rt(f)->qc, f.qc);

  wba::DecideMsg d;
  d.phase = 1;
  d.partial = partial(2);
  EXPECT_EQ(rt(d)->partial.signer, 2u);
}

TEST_F(CodecTest, WbaHelpMessagesRoundTrip) {
  wba::HelpReqMsg req;
  req.partial = partial(3);
  EXPECT_EQ(rt(req)->partial.signer, 3u);

  wba::HelpMsg help;
  help.value = signed_value();
  help.proof_phase = 7;
  help.decide_proof = threshold();
  auto out = rt(help);
  EXPECT_EQ(out->proof_phase, 7u);
  EXPECT_EQ(out->value, help.value);
}

TEST_F(CodecTest, WbaFallbackRoundTripBothShapes) {
  wba::FallbackMsg bare;
  bare.fallback_qc = threshold();
  bare.has_decision = false;
  auto out1 = rt(bare);
  EXPECT_FALSE(out1->has_decision);
  EXPECT_EQ(out1->fallback_qc, bare.fallback_qc);

  wba::FallbackMsg full = bare;
  full.has_decision = true;
  full.value = certified_value();
  full.proof_phase = 2;
  full.decide_proof = threshold();
  auto out2 = rt(full);
  EXPECT_TRUE(out2->has_decision);
  EXPECT_EQ(out2->value, full.value);
  EXPECT_EQ(out2->words(), full.words());
}

TEST_F(CodecTest, BbMessagesRoundTrip) {
  bb::SenderValueMsg sv;
  sv.value = signed_value();
  EXPECT_EQ(rt(sv)->value, sv.value);

  bb::HelpReqMsg hr;
  hr.phase = 9;
  EXPECT_EQ(rt(hr)->phase, 9u);

  bb::ReplyValueMsg rv;
  rv.phase = 2;
  rv.value = certified_value();
  EXPECT_EQ(rt(rv)->value, rv.value);

  bb::IdkMsg idk;
  idk.phase = 3;
  idk.partial = partial();
  EXPECT_EQ(rt(idk)->phase, 3u);

  bb::LeaderValueMsg lv;
  lv.phase = 4;
  lv.value = signed_value();
  EXPECT_EQ(rt(lv)->value, lv.value);
}

TEST_F(CodecTest, SbaMessagesRoundTrip) {
  sba::InputMsg in;
  in.value = Value(1);
  in.partial = partial();
  EXPECT_EQ(rt(in)->value, Value(1));

  sba::ProposeCertMsg pc;
  pc.value = Value(0);
  pc.qc = threshold();
  EXPECT_EQ(rt(pc)->qc, pc.qc);

  sba::DecideVoteMsg dv;
  dv.value = Value(1);
  dv.partial = partial(4);
  EXPECT_EQ(rt(dv)->partial.signer, 4u);

  sba::DecideCertMsg dc;
  dc.value = Value(1);
  dc.qc = threshold();
  EXPECT_EQ(rt(dc)->value, Value(1));

  sba::FallbackMsg fb;
  fb.has_decision = true;
  fb.value = Value(0);
  fb.proof = threshold();
  auto out = rt(fb);
  EXPECT_TRUE(out->has_decision);
  EXPECT_EQ(out->proof, fb.proof);
}

TEST_F(CodecTest, DsRelayRoundTripPreservesChainVerification) {
  fallback::DsRelayMsg m;
  m.instance = 2;
  m.value = WireValue::plain(Value(5));
  m.chain = aggregate_start(family_.pki(), sig(2));
  aggregate_add(family_.pki(), m.chain, sig(3));
  auto out = rt(m);
  EXPECT_EQ(out->instance, 2u);
  EXPECT_EQ(out->chain.signers.count(), 2u);
  EXPECT_TRUE(aggregate_verify(family_.pki(), out->chain));
}

TEST_F(CodecTest, IcMuxRoundTripNestsTheInnerMessage) {
  auto inner = std::make_shared<bb::ReplyValueMsg>();
  inner->phase = 3;
  inner->value = signed_value();
  ic::MuxMsg m;
  m.lane = 4;
  m.inner = inner;
  const auto bytes = wire::encode(m);
  ASSERT_TRUE(bytes.has_value());
  PayloadPtr parsed = wire::decode(*bytes);
  ASSERT_NE(parsed, nullptr);
  const auto* mux = payload_cast<ic::MuxMsg>(parsed);
  ASSERT_NE(mux, nullptr);
  EXPECT_EQ(mux->lane, 4u);
  const auto* rv = payload_cast<bb::ReplyValueMsg>(mux->inner);
  ASSERT_NE(rv, nullptr);
  EXPECT_EQ(rv->phase, 3u);
  EXPECT_EQ(rv->value, inner->value);
}

TEST_F(CodecTest, IcMuxRejectsNestedMux) {
  // Crafted mux-in-mux must be rejected up front (bounded recursion).
  auto innermost = std::make_shared<bb::HelpReqMsg>();
  innermost->phase = 1;
  auto inner_mux = std::make_shared<ic::MuxMsg>();
  inner_mux->lane = 0;
  inner_mux->inner = innermost;
  ic::MuxMsg outer;
  outer.lane = 1;
  outer.inner = inner_mux;
  const auto bytes = wire::encode(outer);
  ASSERT_TRUE(bytes.has_value());  // encodable...
  EXPECT_EQ(wire::decode(*bytes), nullptr);  // ...but never parseable
}

TEST_F(CodecTest, UnknownPayloadTypeHasNoWireForm) {
  struct Foreign final : Payload {
    std::size_t words() const override { return 1; }
    const char* kind() const override { return "foreign"; }
  } foreign;
  EXPECT_FALSE(wire::encode(foreign).has_value());
  // roundtrip passes such payloads through unchanged.
  auto p = std::make_shared<Foreign>();
  EXPECT_EQ(wire::roundtrip(p), p);
}

TEST_F(CodecTest, DecodeRejectsEmptyAndUnknownTag) {
  EXPECT_EQ(wire::decode({}), nullptr);
  const std::uint8_t bad[] = {0xff, 1, 2, 3};
  EXPECT_EQ(wire::decode(bad), nullptr);
  const std::uint8_t zero[] = {0x00};
  EXPECT_EQ(wire::decode(zero), nullptr);
}

TEST_F(CodecTest, DecodeRejectsTruncationAtEveryPrefix) {
  // Every proper prefix of every message type must fail to parse.
  std::vector<std::vector<std::uint8_t>> encodings;
  {
    wba::CommitMsg m;
    m.phase = 4;
    m.value = certified_value();
    m.level = 2;
    m.qc = threshold();
    encodings.push_back(*wire::encode(m));
  }
  {
    wba::FallbackMsg m;
    m.fallback_qc = threshold();
    m.has_decision = true;
    m.value = signed_value();
    m.proof_phase = 1;
    m.decide_proof = threshold();
    encodings.push_back(*wire::encode(m));
  }
  {
    bb::LeaderValueMsg m;
    m.phase = 2;
    m.value = certified_value();
    encodings.push_back(*wire::encode(m));
  }
  {
    sba::ProposeCertMsg m;
    m.value = Value(1);
    m.qc = threshold();
    encodings.push_back(*wire::encode(m));
  }
  {
    fallback::DsRelayMsg m;
    m.instance = 1;
    m.value = WireValue::plain(Value(2));
    m.chain = aggregate_start(family_.pki(), sig(1));
    encodings.push_back(*wire::encode(m));
  }
  for (const auto& bytes : encodings) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_EQ(wire::decode(std::span(bytes.data(), len)), nullptr)
          << "prefix of length " << len << "/" << bytes.size() << " parsed";
    }
  }
}

TEST_F(CodecTest, DecodeRejectsTrailingGarbage) {
  bb::HelpReqMsg m;
  m.phase = 1;
  auto bytes = *wire::encode(m);
  bytes.push_back(0x42);
  EXPECT_EQ(wire::decode(bytes), nullptr);
}

TEST_F(CodecTest, DecodeRejectsNonCanonicalProvenance) {
  // A signed value whose signature flag is cleared: prov says kSigned but
  // no signature follows.
  wba::ProposeMsg m;
  m.phase = 1;
  m.value = signed_value();
  auto bytes = *wire::encode(m);
  // Layout: tag(1) + phase(8) + value.raw(8) + prov(1) + aux(8) + has_sig(1)
  const std::size_t has_sig_off = 1 + 8 + 8 + 1 + 8;
  ASSERT_EQ(bytes[has_sig_off], 1u);
  bytes[has_sig_off] = 0;
  // Now the signature bytes become trailing garbage / field soup; decode
  // must reject either way.
  EXPECT_EQ(wire::decode(bytes), nullptr);
}

TEST_F(CodecTest, DecodeIsTotalOnRandomBytes) {
  // No crash, no UB: every random byte string either parses or returns
  // nullptr. (Run under the default build's assertions.)
  Rng rng(0xc0dec);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> bytes(rng.below(120));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    (void)wire::decode(bytes);
  }
  SUCCEED();
}

TEST_F(CodecTest, DecodeIsTotalOnBitFlippedRealMessages) {
  wba::FallbackMsg full;
  full.fallback_qc = threshold();
  full.has_decision = true;
  full.value = certified_value();
  full.proof_phase = 2;
  full.decide_proof = threshold();
  const auto bytes = *wire::encode(full);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    auto mutated = bytes;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    (void)wire::decode(mutated);  // must not crash; may parse or reject
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// End-to-end: full protocol runs with every message round-tripped.
// ---------------------------------------------------------------------------

TEST(CodecEndToEnd, BbOverTheWire) {
  auto spec = harness::RunSpec::for_t(2);
  spec.codec_roundtrip = true;
  adv::CrashAdversary adv({1});
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(12)), 0}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(12));
}

TEST(CodecEndToEnd, WeakBaOverTheWireIncludingFallback) {
  auto spec = harness::RunSpec::for_t(2);
  spec.codec_roundtrip = true;
  adv::CrashAdversary adv({0, 1});  // f = t: exercises the DS relays too
  const auto res = kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(6))}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(6));
}

TEST(CodecEndToEnd, StrongBaOverTheWire) {
  auto spec = harness::RunSpec::for_t(2);
  spec.codec_roundtrip = true;
  adv::Alg5Withhold adv(spec.instance, adv::Alg5Mode::kHideDecide, 1);
  const auto res =
      kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(1));
}

TEST(CodecEndToEnd, WordCostsUnchangedByRoundTrip) {
  auto run = [](bool roundtrip) {
    auto spec = harness::RunSpec::for_t(3);
    spec.codec_roundtrip = roundtrip;
    adv::NullAdversary adv;
    return kBb.run(
        spec, {kBb.prepare(spec.n, Value(3)), 0}, adv).meter.words_correct;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(CodecEndToEnd, FuzzedRunOverTheWire) {
  auto spec = harness::RunSpec::for_t(3);
  spec.codec_roundtrip = true;
  adv::Fuzzer adv(spec.instance, 55, 2, 4, /*spare=*/0);
  const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(9)), 0}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(9));
}

}  // namespace
}  // namespace mewc
