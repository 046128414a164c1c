// Adversarial property tests for the real (pairing-verified) backend: BLS
// signatures, aggregate multisignatures, and the RealThreshold scheme.
// Every forgery class the design claims to close is exercised directly —
// bit-flipped tags, rogue keys without proofs of possession, k-1 share
// coalitions, batch-verification smuggling — plus a codec_fuzz-style
// corruption sweep over wire payloads carrying real certificates: whatever
// the decoder accepts must still fail verification unless it is the
// original certificate, and nothing may crash (the ASan/UBSan preset runs
// this file; see CMakePresets.json).
#include "crypto/agg_threshold.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "ba/weak_ba/messages.hpp"
#include "crypto/family.hpp"
#include "crypto/multisig.hpp"
#include "wire/codec.hpp"

namespace mewc {
namespace {

Digest digest_of(std::uint64_t bits) { return Digest{bits}; }

// ---------------------------------------------------------------------------
// BLS primitives.
// ---------------------------------------------------------------------------

TEST(BlsPrimitives, SignVerifyAndDomainSeparation) {
  const std::uint64_t sk = 0x5ecce7;
  const rc::PairingTable pk(rc::scalar_mul(sk, rc::kG));
  const rc::Point h = bls_message_point("mewc.test", 0x1234);
  const std::uint64_t tag = bls_sign_at(sk, h);
  CryptoVerifyStats stats;
  EXPECT_TRUE(bls_verify_at(pk, h, tag, &stats));
  EXPECT_GT(stats.pairings, 0u);

  // Same bits, different domain: different message point, so the signature
  // must not transfer.
  const rc::Point other = bls_message_point("mewc.other", 0x1234);
  EXPECT_FALSE(bls_verify_at(pk, other, tag, nullptr));
  // Domain-separated hashes differ (a collision here would let one
  // protocol's certificate replay into another's).
  EXPECT_FALSE(h == other);
}

TEST(BlsPrimitives, EveryBitFlipOfTheTagIsRejected) {
  const std::uint64_t sk = 0xabcdef;
  const rc::PairingTable pk(rc::scalar_mul(sk, rc::kG));
  const rc::Point h = bls_message_point("mewc.test", 99);
  const std::uint64_t tag = bls_sign_at(sk, h);
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_FALSE(bls_verify_at(pk, h, tag ^ (1ULL << bit), nullptr))
        << "bit " << bit;
  }
  EXPECT_FALSE(bls_verify_at(pk, h, rc::kBadEncoding, nullptr));
  EXPECT_FALSE(bls_verify_at(pk, h, rc::kInfBit, nullptr)) << "identity tag";
}

// ---------------------------------------------------------------------------
// Individual signatures through the Pki, and aggregates.
// ---------------------------------------------------------------------------

class RealPkiTest : public ::testing::Test {
 protected:
  RealPkiTest() : family_(5, 2, ThresholdBackend::kReal, 0xcafe) {
    for (ProcessId p = 0; p < 5; ++p) {
      bundles_.push_back(family_.issue_bundle(p));
    }
  }

  ThresholdFamily family_;
  std::vector<KeyBundle> bundles_;
};

TEST_F(RealPkiTest, SignatureTagCorruptionSweep) {
  const Signature sig = bundles_[1].signer().sign(digest_of(0x777));
  ASSERT_TRUE(family_.pki().verify(sig));
  for (int bit = 0; bit < 64; ++bit) {
    Signature bad = sig;
    bad.tag ^= 1ULL << bit;
    EXPECT_FALSE(family_.pki().verify(bad)) << "tag bit " << bit;
  }
  // Signer swap and digest swap: the signature binds both.
  Signature wrong_signer = sig;
  wrong_signer.signer = 2;
  EXPECT_FALSE(family_.pki().verify(wrong_signer));
  Signature wrong_digest = sig;
  wrong_digest.digest = digest_of(0x778);
  EXPECT_FALSE(family_.pki().verify(wrong_digest));
}

TEST_F(RealPkiTest, AggregateVerifiesAndRejectsCorruption) {
  const Digest d = digest_of(0x777);
  AggSignature agg = aggregate_start(family_.pki(), bundles_[0].signer().sign(d));
  ASSERT_TRUE(aggregate_add(family_.pki(), agg, bundles_[1].signer().sign(d)));
  ASSERT_TRUE(aggregate_add(family_.pki(), agg, bundles_[3].signer().sign(d)));
  ASSERT_TRUE(aggregate_verify(family_.pki(), agg));

  for (int bit = 0; bit < 64; ++bit) {
    AggSignature bad = agg;
    bad.tag ^= 1ULL << bit;
    EXPECT_FALSE(aggregate_verify(family_.pki(), bad)) << "agg bit " << bit;
  }
  // Claiming an extra signer (or dropping one) without adjusting the point
  // breaks the pairing equation against the summed public keys.
  AggSignature extra = agg;
  ASSERT_TRUE(extra.signers.insert(2));
  EXPECT_FALSE(aggregate_verify(family_.pki(), extra));
  AggSignature fewer = agg;
  fewer.signers = SignerSet(5);
  ASSERT_TRUE(fewer.signers.insert(0));
  ASSERT_TRUE(fewer.signers.insert(1));
  EXPECT_FALSE(aggregate_verify(family_.pki(), fewer));
}

TEST_F(RealPkiTest, UndecodableTagPoisonsTheAggregate) {
  const Digest d = digest_of(0x9a9a);
  Signature garbage = bundles_[0].signer().sign(d);
  garbage.tag = rc::kBadEncoding;
  AggSignature agg = aggregate_start(family_.pki(), garbage);
  // Folding further valid signatures cannot launder the poison back into a
  // verifying aggregate.
  ASSERT_TRUE(aggregate_add(family_.pki(), agg, bundles_[1].signer().sign(d)));
  EXPECT_FALSE(aggregate_verify(family_.pki(), agg));
}

TEST_F(RealPkiTest, RogueKeyWithoutProofOfPossessionIsRejected) {
  const Pki& pki = family_.pki();
  // The classic rogue-key setup: the attacker registers pk_rogue chosen as
  // a function of the victims' keys (here: the negated sum, so the summed
  // aggregate key collapses to the identity). The defense is the setup-time
  // proof of possession, which the attacker cannot produce without the
  // discrete log of pk_rogue — and cannot transplant from a real key.
  rc::Point sum{};  // infinity
  for (ProcessId p = 0; p < 5; ++p) {
    rc::Point pk;
    ASSERT_TRUE(rc::decompress(pki.bls_pk_enc(p), &pk));
    sum = rc::point_add(sum, pk);
  }
  const std::uint64_t rogue_enc = rc::compress(rc::point_neg(sum));

  // Process 0's genuine PoP does not certify the rogue key.
  EXPECT_TRUE(pki.verify_pop(0, pki.bls_pk_enc(0), pki.pop_of(0)));
  EXPECT_FALSE(pki.verify_pop(0, rogue_enc, pki.pop_of(0)));
  // Nor does a self-made PoP under a key the attacker does control: the
  // verifier checks against process 0's identity key, not the attacker's.
  const EdKeyPair attacker = ed_keygen(0x5ca1ab1e);
  std::vector<std::uint8_t> msg(8);
  for (int i = 0; i < 8; ++i) {
    msg[i] = static_cast<std::uint8_t>(rogue_enc >> (8 * i));
  }
  const EdSig forged_pop = ed_sign(attacker, msg);
  EXPECT_FALSE(pki.verify_pop(0, rogue_enc, forged_pop));
}

// ---------------------------------------------------------------------------
// RealThreshold.
// ---------------------------------------------------------------------------

class RealThresholdTest : public ::testing::Test {
 protected:
  RealThresholdTest() : scheme_(3, 5, 0xabc) {
    for (ProcessId p = 0; p < 5; ++p) {
      keys_.push_back(scheme_.issue_share(p));
    }
  }

  std::vector<PartialSig> partials(Digest d) {
    std::vector<PartialSig> out;
    for (const ShareKey& k : keys_) out.push_back(k.partial_sign(d));
    return out;
  }

  RealThreshold scheme_;
  std::vector<ShareKey> keys_;
};

TEST_F(RealThresholdTest, AnyKSharesCombineToTheSameSignature) {
  const Digest d = digest_of(0x1234);
  const auto parts = partials(d);
  for (const PartialSig& p : parts) EXPECT_TRUE(scheme_.verify_partial(p));

  const auto sig135 = scheme_.combine({parts.begin() + 1, 3});
  const auto sig024 = scheme_.combine(
      std::span<const PartialSig>{std::array{parts[0], parts[2], parts[4]}});
  ASSERT_TRUE(sig135.has_value());
  ASSERT_TRUE(sig024.has_value());
  // Share-set independence: Lagrange in the exponent reconstructs the one
  // group signature whichever quorum combines.
  EXPECT_EQ(sig135->tag, sig024->tag);
  EXPECT_TRUE(scheme_.verify(*sig135));
}

TEST_F(RealThresholdTest, KMinusOneSharesNeverReconstruct) {
  const Digest d = digest_of(0x1234);
  const auto parts = partials(d);
  EXPECT_FALSE(scheme_.combine({parts.begin(), 2}).has_value());
  EXPECT_FALSE(scheme_.combine({parts.begin(), 0}).has_value());
  // Duplicated signers do not count toward the threshold.
  const std::array dup{parts[0], parts[0], parts[0]};
  EXPECT_FALSE(scheme_.combine(std::span<const PartialSig>{dup}).has_value());
}

TEST_F(RealThresholdTest, PartialAndGroupTagCorruptionSweeps) {
  const Digest d = digest_of(0x4444);
  const auto parts = partials(d);
  const auto sig = scheme_.combine({parts.begin(), 3});
  ASSERT_TRUE(sig.has_value());

  for (int bit = 0; bit < 64; ++bit) {
    PartialSig bad_p = parts[0];
    bad_p.tag ^= 1ULL << bit;
    EXPECT_FALSE(scheme_.verify_partial(bad_p)) << "partial bit " << bit;
    ThresholdSig bad_g = *sig;
    bad_g.tag ^= 1ULL << bit;
    EXPECT_FALSE(scheme_.verify(bad_g)) << "group bit " << bit;
  }
  // Digest substitution under a valid tag.
  ThresholdSig replayed = *sig;
  replayed.digest = digest_of(0x4445);
  EXPECT_FALSE(scheme_.verify(replayed));
  // A partial from a different signer under signer 0's identity.
  PartialSig stolen = parts[1];
  stolen.signer = 0;
  EXPECT_FALSE(scheme_.verify_partial(stolen));
}

TEST_F(RealThresholdTest, BatchVerificationAdmitsNoSmuggling) {
  const Digest d1 = digest_of(0xd1);
  const Digest d2 = digest_of(0xd2);
  const auto s1 = scheme_.combine({partials(d1).data(), 3});
  const auto s2 = scheme_.combine({partials(d2).data(), 3});
  ASSERT_TRUE(s1 && s2);

  EXPECT_TRUE(scheme_.verify_batch(std::array{*s1, *s2}));
  EXPECT_TRUE(scheme_.verify_batch(std::array{*s1}));
  EXPECT_TRUE(scheme_.verify_batch(std::span<const ThresholdSig>{}));

  ThresholdSig bad = *s1;
  bad.tag ^= 2;
  EXPECT_FALSE(scheme_.verify_batch(std::array{bad}));
  EXPECT_FALSE(scheme_.verify_batch(std::array{*s1, bad}));
  EXPECT_FALSE(scheme_.verify_batch(std::array{bad, *s2}));
  // Two corruptions must not cancel: same forged delta on both entries.
  ThresholdSig bad2 = *s2;
  bad2.tag ^= 2;
  EXPECT_FALSE(scheme_.verify_batch(std::array{bad, bad2}));
  EXPECT_FALSE(scheme_.verify_batch(std::array{bad, bad}));
}

TEST_F(RealThresholdTest, MemoServesRepeatVerificationsWithoutPairings) {
  const Digest d = digest_of(0x3333);
  const auto sig = scheme_.combine({partials(d).data(), 3});
  ASSERT_TRUE(sig.has_value());
  scheme_.reset_verify_stats();
  ASSERT_TRUE(scheme_.verify(*sig));
  const std::uint64_t cold = scheme_.verify_stats().pairings;
  EXPECT_GT(cold, 0u);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(scheme_.verify(*sig));
  EXPECT_EQ(scheme_.verify_stats().pairings, cold)
      << "repeat verifications should be memo hits, not pairings";
  EXPECT_EQ(scheme_.verify_stats().memo_hits, 10u);
  // Negative results are memoized too (a Byzantine cert replayed to every
  // process must not cost a pairing per replay).
  ThresholdSig bad = *sig;
  bad.tag ^= 1;
  EXPECT_FALSE(scheme_.verify(bad));
  const std::uint64_t after_bad = scheme_.verify_stats().pairings;
  EXPECT_FALSE(scheme_.verify(bad));
  EXPECT_EQ(scheme_.verify_stats().pairings, after_bad);
}

// ---------------------------------------------------------------------------
// Wire-level corruption sweep (the codec_fuzz discipline pointed at real
// certificates): encode a payload carrying a real quorum certificate, flip
// every byte, decode, and verify whatever still parses. Nothing may crash;
// nothing that decodes to a different certificate may verify.
// ---------------------------------------------------------------------------

TEST_F(RealPkiTest, CorruptedWireCertificatesNeverVerify) {
  const std::uint32_t k = 3;  // t+1 scheme of the (5, 2) family
  std::vector<PartialSig> parts;
  const Digest d = digest_of(0xc0ffee);
  for (ProcessId p = 0; p < k; ++p) {
    parts.push_back(bundles_[p].share(k).partial_sign(d));
  }
  const auto qc = family_.scheme(k).combine(parts);
  ASSERT_TRUE(qc.has_value());
  ASSERT_TRUE(family_.scheme(k).verify(*qc));

  wba::CommitMsg commit;
  commit.phase = 2;
  commit.value = WireValue::certified(Value(8), *qc, 1);
  commit.level = 1;
  commit.qc = *qc;
  const auto bytes = wire::encode(commit);
  ASSERT_TRUE(bytes.has_value());

  // The thresholds the family provisions; a decoded certificate claiming
  // any other k is unverifiable by construction (scheme() aborts), which is
  // exactly how the live scanner treats it.
  const auto provisioned = [&](std::uint32_t kk) {
    return kk == 3 || kk == 4 || kk == 5;  // t+1, ceil((n+t+1)/2), n
  };

  std::size_t parsed_variants = 0;
  for (std::size_t byte = 0; byte < bytes->size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = *bytes;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const PayloadPtr decoded = wire::decode(mutated);
      if (decoded == nullptr) continue;
      const auto* c = payload_cast<wba::CommitMsg>(decoded);
      if (c == nullptr) continue;  // flipped into another kind entirely
      ++parsed_variants;
      if (!(c->qc == *qc) && provisioned(c->qc.k)) {
        EXPECT_FALSE(family_.scheme(c->qc.k).verify(c->qc))
            << "byte " << byte << " bit " << bit;
      }
      if (c->value.cert && !(*c->value.cert == *qc) &&
          provisioned(c->value.cert->k)) {
        EXPECT_FALSE(family_.scheme(c->value.cert->k).verify(*c->value.cert))
            << "value.cert byte " << byte << " bit " << bit;
      }
    }
  }
  // The sweep must actually have exercised decoded-but-corrupt payloads.
  EXPECT_GT(parsed_variants, 0u);
}

}  // namespace
}  // namespace mewc
