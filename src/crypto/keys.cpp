#include "crypto/keys.hpp"

#include "common/check.hpp"
#include "common/hash.hpp"

namespace mewc {

namespace {

/// Message point for individual BLS signatures; the threshold schemes hash
/// under "mewc.bls.threshold", so the domains never collide.
[[nodiscard]] rc::Point pki_message_point(Digest d) {
  return bls_message_point("mewc.bls", d.bits);
}

/// The byte string a proof of possession signs: the compressed BLS public
/// key under a fixed domain prefix.
[[nodiscard]] std::vector<std::uint8_t> pop_message(std::uint64_t pk_enc) {
  std::vector<std::uint8_t> msg;
  msg.reserve(16);
  for (char c : {'m', 'e', 'w', 'c', '.', 'p', 'o', 'p'}) {
    msg.push_back(static_cast<std::uint8_t>(c));
  }
  for (int i = 0; i < 8; ++i) {
    msg.push_back(static_cast<std::uint8_t>(pk_enc >> (8 * i)));
  }
  return msg;
}

}  // namespace

Pki::Pki(std::uint32_t n, std::uint64_t seed, ThresholdBackend backend)
    : backend_(backend), master_seed_(mix64(seed ^ 0xc0ffee)) {
  MEWC_CHECK_MSG(n >= 1, "PKI needs at least one process");
  secrets_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    secrets_.push_back(mix64(master_seed_ ^ mix64(i + 1)));
  }
  per_signer_issued_.assign(n, 0);

  if (backend_ == ThresholdBackend::kReal) {
    bls_sks_.reserve(n);
    bls_pks_.reserve(n);
    bls_pk_tables_.reserve(n);
    bls_pk_encs_.reserve(n);
    pop_keys_.reserve(n);
    pops_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t sk = 0;
      for (std::uint64_t ctr = 0; sk == 0; ++ctr) {
        sk = rc::q_reduce(hash_combine(secrets_[i] ^ 0xb125ULL, ctr));
      }
      bls_sks_.push_back(sk);
      bls_pks_.push_back(rc::scalar_mul(sk, rc::kG));
      bls_pk_tables_.emplace_back(bls_pks_.back());
      bls_pk_encs_.push_back(rc::compress(bls_pks_.back()));
      // Certify the BLS key with a Schnorr proof of possession: nobody can
      // register a key function of other parties' keys (rogue-key attack)
      // without knowing its discrete log.
      pop_keys_.push_back(ed_keygen(secrets_[i] ^ 0xed90bULL));
      pops_.push_back(ed_sign(pop_keys_.back(), pop_message(bls_pk_encs_[i])));
      MEWC_CHECK_MSG(verify_pop(i, bls_pk_encs_[i], pops_[i]),
                     "setup produced an invalid proof of possession");
    }
  }
}

PrivateKey Pki::issue_key(ProcessId pid) const {
  MEWC_CHECK(pid < secrets_.size());
  return PrivateKey(this, pid);
}

std::uint64_t Pki::mac(ProcessId signer, Digest d) const {
  MEWC_CHECK(signer < secrets_.size());
  return hash_combine(secrets_[signer], d.bits);
}

std::uint64_t Pki::sign_tag(ProcessId signer, Digest d) const {
  if (backend_ == ThresholdBackend::kReal) {
    MEWC_CHECK(signer < bls_sks_.size());
    return bls_sign_at(bls_sks_[signer], pki_message_point(d));
  }
  return mac(signer, d);
}

bool Pki::verify(const Signature& sig) const {
  if (sig.signer >= secrets_.size()) return false;
  if (backend_ != ThresholdBackend::kReal) {
    return sig.tag == mac(sig.signer, sig.digest);
  }
  return verify_memo_.get_or_verify(
      {sig.signer, sig.digest.bits, sig.tag}, crypto_stats_, [&] {
        return bls_verify_at(bls_pk_tables_[sig.signer],
                             pki_message_point(sig.digest), sig.tag,
                             &crypto_stats_);
      });
}

bool Pki::verify_mac_xor(Digest d, std::span<const ProcessId> signers,
                         std::uint64_t tag) const {
  std::uint64_t expected = 0;
  for (ProcessId p : signers) {
    if (p >= secrets_.size()) return false;
    expected ^= mac(p, d);
  }
  return expected == tag;
}

bool Pki::verify_aggregate(Digest d, std::span<const ProcessId> signers,
                           std::uint64_t tag) const {
  if (backend_ != ThresholdBackend::kReal) {
    return verify_mac_xor(d, signers, tag);
  }
  // One pairing pair for the whole certificate: e(sigma, G) == e(H(d), sum
  // of the claimed signers' public keys). Sound because every key in the
  // universe carried a proof of possession at setup.
  return aggregate_memo_.get_or_verify(
      {d.bits, tag, std::vector<ProcessId>(signers.begin(), signers.end())},
      crypto_stats_, [&] {
        rc::Point pk_sum;  // infinity
        for (ProcessId p : signers) {
          if (p >= bls_pks_.size()) return false;
          pk_sum = rc::point_add(pk_sum, bls_pks_[p]);
        }
        rc::Point sigma;
        if (!rc::decompress(tag, &sigma)) return false;
        if (!rc::in_subgroup(sigma)) return false;
        crypto_stats_.pairings += 2;
        // e(G, sigma) == e(sigma, G): sigma is in the subgroup.
        return rc::generator_table().pairing(sigma) ==
               rc::pairing(pki_message_point(d), pk_sum);
      });
}

std::uint64_t Pki::aggregate_fold(std::uint64_t agg_tag,
                                  std::uint64_t sig_tag) const {
  if (backend_ != ThresholdBackend::kReal) return agg_tag ^ sig_tag;
  rc::Point a;
  rc::Point b;
  if (!rc::decompress(agg_tag, &a) || !rc::decompress(sig_tag, &b)) {
    return rc::kBadEncoding;  // poisoned: can never verify, never traps
  }
  return rc::compress(rc::point_add(a, b));
}

std::uint64_t Pki::bls_pk_enc(ProcessId pid) const {
  MEWC_CHECK_MSG(backend_ == ThresholdBackend::kReal,
                 "BLS keys exist only under the real backend");
  MEWC_CHECK(pid < bls_pk_encs_.size());
  return bls_pk_encs_[pid];
}

const EdSig& Pki::pop_of(ProcessId pid) const {
  MEWC_CHECK_MSG(backend_ == ThresholdBackend::kReal,
                 "proofs of possession exist only under the real backend");
  MEWC_CHECK(pid < pops_.size());
  return pops_[pid];
}

bool Pki::verify_pop(ProcessId pid, std::uint64_t pk_enc,
                     const EdSig& pop) const {
  if (backend_ != ThresholdBackend::kReal) return false;
  if (pid >= pop_keys_.size()) return false;
  const std::vector<std::uint8_t> msg = pop_message(pk_enc);
  return ed_verify(pop_keys_[pid].pk_enc, msg, pop);
}

void Pki::reset_signature_counters() {
  signatures_issued_ = 0;
  per_signer_issued_.assign(per_signer_issued_.size(), 0);
}

Signature PrivateKey::sign(Digest d) const {
  Signature sig;
  sig.signer = owner_;
  sig.digest = d;
  sig.tag = pki_->sign_tag(owner_, d);
  ++pki_->signatures_issued_;
  ++pki_->per_signer_issued_[owner_];
  return sig;
}

}  // namespace mewc
