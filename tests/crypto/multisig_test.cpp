#include "crypto/multisig.hpp"

#include <gtest/gtest.h>

#include <initializer_list>

namespace mewc {
namespace {

Digest d(std::uint64_t x) { return DigestBuilder("ms").field(x).done(); }

class MultisigTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 7;
  Pki pki_{kN};

  Signature sig(ProcessId p, std::uint64_t x) {
    return pki_.issue_key(p).sign(d(x));
  }
};

TEST_F(MultisigTest, SingleSignerAggregateVerifies) {
  const AggSignature agg = aggregate_start(pki_, sig(0, 1));
  EXPECT_EQ(agg.signers.count(), 1u);
  EXPECT_TRUE(aggregate_verify(pki_, agg));
}

TEST_F(MultisigTest, ManySignersAggregateVerifies) {
  AggSignature agg = aggregate_start(pki_, sig(0, 1));
  for (ProcessId p = 1; p < kN; ++p) {
    EXPECT_TRUE(aggregate_add(pki_, agg, sig(p, 1)));
  }
  EXPECT_EQ(agg.signers.count(), kN);
  EXPECT_TRUE(aggregate_verify(pki_, agg));
}

TEST_F(MultisigTest, DuplicateSignerRejected) {
  AggSignature agg = aggregate_start(pki_, sig(0, 1));
  EXPECT_FALSE(aggregate_add(pki_, agg, sig(0, 1)));
  EXPECT_EQ(agg.signers.count(), 1u);
  EXPECT_TRUE(aggregate_verify(pki_, agg));  // unchanged, still valid
}

TEST_F(MultisigTest, DigestMismatchRejected) {
  AggSignature agg = aggregate_start(pki_, sig(0, 1));
  EXPECT_FALSE(aggregate_add(pki_, agg, sig(1, 2)));
}

TEST_F(MultisigTest, ClaimingExtraSignerFailsVerification) {
  // The forgery the Dolev-Strong chains must resist: adding a signer to the
  // bitmap without folding in its (unknown) MAC.
  AggSignature agg = aggregate_start(pki_, sig(0, 1));
  aggregate_add(pki_, agg, sig(1, 1));
  agg.signers.insert(2);
  EXPECT_FALSE(aggregate_verify(pki_, agg));
}

TEST_F(MultisigTest, DroppingSignerFailsVerification) {
  AggSignature agg = aggregate_start(pki_, sig(0, 1));
  aggregate_add(pki_, agg, sig(1, 1));
  AggSignature shrunk;
  shrunk.digest = agg.digest;
  shrunk.signers = SignerSet(kN);
  shrunk.signers.insert(0);
  shrunk.tag = agg.tag;  // tag still covers both
  EXPECT_FALSE(aggregate_verify(pki_, shrunk));
}

TEST_F(MultisigTest, TamperedTagFailsVerification) {
  AggSignature agg = aggregate_start(pki_, sig(0, 1));
  agg.tag ^= 0xdead;
  EXPECT_FALSE(aggregate_verify(pki_, agg));
}

TEST_F(MultisigTest, WordCostIsTagPlusBitmap) {
  AggSignature agg = aggregate_start(pki_, sig(0, 1));
  EXPECT_EQ(agg.words(), 1u + (kN + 63) / 64);
}

// kReal aggregate memo: results are keyed by (digest, tag, signer list), so
// a repeat costs no pairing, a forgery stays rejected, and the same tag
// claimed for another signer set is verified afresh.
class RealMultisigTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 7;
  Pki pki_{kN, 0x5e7u, ThresholdBackend::kReal};

  AggSignature aggregate(std::initializer_list<ProcessId> signers,
                         std::uint64_t x) {
    AggSignature agg;
    for (ProcessId p : signers) {
      const Signature s = pki_.issue_key(p).sign(d(x));
      if (agg.signers.universe() == 0) {
        agg = aggregate_start(pki_, s);
      } else {
        EXPECT_TRUE(aggregate_add(pki_, agg, s));
      }
    }
    return agg;
  }
};

TEST_F(RealMultisigTest, RepeatedVerifyIsMemoHitWithoutPairing) {
  const AggSignature agg = aggregate({0, 2, 5}, 1);
  EXPECT_TRUE(aggregate_verify(pki_, agg));
  const CryptoVerifyStats first = pki_.crypto_verify_stats();
  EXPECT_EQ(first.pairings, 2u);
  EXPECT_EQ(first.memo_hits, 0u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(aggregate_verify(pki_, agg));
  EXPECT_EQ(pki_.crypto_verify_stats().pairings, first.pairings);
  EXPECT_EQ(pki_.crypto_verify_stats().memo_hits, 3u);
}

TEST_F(RealMultisigTest, ForgedAggregateRejectedOnEveryRepeat) {
  // A well-formed point that is not the aggregate: signer 0's own tag
  // claimed for {0, 1}. It decodes, so the pairing check is what fails.
  AggSignature forged = aggregate({0, 1}, 1);
  forged.tag = aggregate({0}, 1).tag;
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(aggregate_verify(pki_, forged));
  EXPECT_EQ(pki_.crypto_verify_stats().pairings, 2u);
  EXPECT_EQ(pki_.crypto_verify_stats().memo_hits, 2u);
}

TEST_F(RealMultisigTest, SameTagForAnotherSignerSetIsNotAHit) {
  const AggSignature agg = aggregate({0, 1}, 1);
  ASSERT_TRUE(aggregate_verify(pki_, agg));
  const CryptoVerifyStats before = pki_.crypto_verify_stats();

  // The rogue set: same digest and tag, one more claimed signer.
  AggSignature rogue = agg;
  rogue.signers.insert(2);
  EXPECT_FALSE(aggregate_verify(pki_, rogue));
  EXPECT_EQ(pki_.crypto_verify_stats().memo_hits, before.memo_hits);
  EXPECT_EQ(pki_.crypto_verify_stats().pairings, before.pairings + 2);

  // And one fewer: a subset is a different statement too.
  AggSignature shrunk = agg;
  shrunk.signers = SignerSet(kN);
  shrunk.signers.insert(0);
  EXPECT_FALSE(aggregate_verify(pki_, shrunk));
  EXPECT_EQ(pki_.crypto_verify_stats().memo_hits, before.memo_hits);
  EXPECT_EQ(pki_.crypto_verify_stats().pairings, before.pairings + 4);

  // The genuine certificate is still a hit afterwards.
  EXPECT_TRUE(aggregate_verify(pki_, agg));
  EXPECT_EQ(pki_.crypto_verify_stats().memo_hits, before.memo_hits + 1);
}

TEST(SignerSet, InsertContainsCount) {
  SignerSet s(130);  // spans three 64-bit limbs
  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.insert(64));
  EXPECT_TRUE(s.insert(129));
  EXPECT_FALSE(s.insert(64));
  EXPECT_EQ(s.count(), 3u);
  EXPECT_TRUE(s.contains(129));
  EXPECT_FALSE(s.contains(128));
  EXPECT_FALSE(s.contains(1000));
  EXPECT_EQ(s.words(), 3u);
}

TEST(SignerSet, MembersRoundTrip) {
  SignerSet s(10);
  s.insert(3);
  s.insert(7);
  s.insert(9);
  EXPECT_EQ(s.members(), (std::vector<ProcessId>{3, 7, 9}));
}

}  // namespace
}  // namespace mewc
