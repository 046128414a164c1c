#include "crypto/agg_threshold.hpp"

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace mewc {

rc::Point bls_message_point(std::string_view domain, std::uint64_t bits) {
  Hasher h;
  h.feed(domain);
  h.feed(bits);
  return rc::hash_to_point(h.digest());
}

std::uint64_t bls_sign_at(std::uint64_t sk, rc::Point h) {
  return rc::compress(rc::scalar_mul(sk, h));
}

bool bls_verify_at(const rc::PairingTable& pk, rc::Point h, std::uint64_t tag,
                   CryptoVerifyStats* stats) {
  rc::Point sigma;
  if (!rc::decompress(tag, &sigma)) return false;
  if (!rc::in_subgroup(sigma)) return false;
  if (stats != nullptr) stats->pairings += 2;
  return rc::generator_table().pairing(sigma) == pk.pairing(h);
}

RealThreshold::RealThreshold(std::uint32_t k, std::uint32_t n,
                             std::uint64_t seed)
    : ThresholdScheme(k, n) {
  MEWC_CHECK_MSG(k >= 1 && k <= n, "threshold k must be in [1, n]");
  Rng rng(hash_combine(seed, hash_combine(k, n)) ^ 0xb15b15ULL);

  // Random degree-(k-1) polynomial P over Z_q with nonzero group secret
  // P(0). The secret and coefficients live only in this scope: what the
  // scheme keeps are the shares (secret per process) and the public keys.
  std::vector<std::uint64_t> coeffs(k);
  do {
    coeffs[0] = rng.below(rc::kQ);
  } while (coeffs[0] == 0);
  for (std::uint32_t i = 1; i < k; ++i) coeffs[i] = rng.below(rc::kQ);

  shares_.resize(n);
  share_pks_.resize(n);
  share_pk_tables_.reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    const std::uint64_t x = x_coord(pid);
    std::uint64_t acc = 0;
    for (std::uint32_t c = k; c-- > 0;) {
      acc = rc::q_add(rc::q_mul(acc, x), coeffs[c]);
    }
    shares_[pid] = acc;
    share_pks_[pid] = rc::scalar_mul(acc, rc::kG);
    share_pk_tables_.emplace_back(share_pks_[pid]);
  }
  group_pk_ = rc::scalar_mul(coeffs[0], rc::kG);
  group_pk_table_ = rc::PairingTable(group_pk_);
}

rc::Point RealThreshold::message_point(Digest d) const {
  // Domain-separate by k so partials from schemes with different thresholds
  // can never be mixed, and by a scheme tag so threshold partials can never
  // be replayed as individual BLS signatures (which hash under "mewc.bls").
  return bls_message_point("mewc.bls.threshold", hash_combine(d.bits, k()));
}

PartialSig RealThreshold::make_partial(ProcessId signer, Digest d) const {
  MEWC_CHECK(signer < n());
  PartialSig p;
  p.signer = signer;
  p.digest = d;
  p.k = k();
  p.tag = bls_sign_at(shares_[signer], message_point(d));
  return p;
}

bool RealThreshold::verify_partial(const PartialSig& p) const {
  if (p.signer >= n() || p.k != k()) return false;
  return partial_memo_.get_or_verify(
      {p.signer, p.digest.bits, p.tag}, stats_, [&] {
        return bls_verify_at(share_pk_tables_[p.signer],
                             message_point(p.digest), p.tag, &stats_);
      });
}

std::uint64_t RealThreshold::combine_tag(
    std::span<const PartialSig> chosen) const {
  // Lagrange interpolation at x = 0 in the exponent:
  //   s * H(d) = sum_i lambda_i * sigma_i,
  //   lambda_i = prod_{j != i} x_j / (x_j - x_i)  (in Z_q).
  // The result is the unique group signature, independent of which k shares
  // were chosen — same BLS property SimThreshold imitates.
  rc::Point acc;  // infinity
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const std::uint64_t xi = x_coord(chosen[i].signer);
    std::uint64_t num = 1;
    std::uint64_t den = 1;
    for (std::size_t j = 0; j < chosen.size(); ++j) {
      if (j == i) continue;
      const std::uint64_t xj = x_coord(chosen[j].signer);
      num = rc::q_mul(num, xj);
      den = rc::q_mul(den, rc::q_sub(xj, xi));
    }
    const std::uint64_t lambda = rc::q_mul(num, rc::q_inv(den));
    rc::Point sigma;
    // combine() only hands us partials that passed verify_partial, so the
    // tag decodes; the check guards direct combine_tag misuse.
    MEWC_CHECK_MSG(rc::decompress(chosen[i].tag, &sigma),
                   "combine over unverified partial");
    acc = rc::point_add(acc, rc::scalar_mul(lambda, sigma));
  }
  return rc::compress(acc);
}

bool RealThreshold::verify(const ThresholdSig& sig) const {
  if (sig.k != k()) return false;
  return group_memo_.get_or_verify({sig.digest.bits, sig.tag}, stats_, [&] {
    return bls_verify_at(group_pk_table_, message_point(sig.digest), sig.tag,
                         &stats_);
  });
}

bool RealThreshold::verify_batch(std::span<const ThresholdSig> sigs) const {
  if (sigs.empty()) return true;
  // Deterministic Fiat-Shamir weights: r_j is a hash of the batch contents
  // and the position, nonzero mod q. An adversary controls the signatures
  // before the weights exist, so a batch with any invalid member passes with
  // probability ~1/q.
  Hasher seed;
  seed.feed("mewc.bls.batch");
  for (const ThresholdSig& s : sigs) {
    seed.feed(s.digest.bits);
    seed.feed(s.k);
    seed.feed(s.tag);
  }
  rc::Point sig_acc;  // sum r_j * sigma_j
  rc::Point msg_acc;  // sum r_j * H(d_j)
  for (std::size_t j = 0; j < sigs.size(); ++j) {
    if (sigs[j].k != k()) return false;
    rc::Point sigma;
    if (!rc::decompress(sigs[j].tag, &sigma)) return false;
    if (!rc::in_subgroup(sigma)) return false;
    std::uint64_t r = rc::q_reduce(hash_combine(seed.digest(), j));
    if (r == 0) r = 1;
    sig_acc = rc::point_add(sig_acc, rc::scalar_mul(r, sigma));
    msg_acc = rc::point_add(
        msg_acc, rc::scalar_mul(r, message_point(sigs[j].digest)));
  }
  // Both sums are in the order-q subgroup (checked sigmas, hashed points),
  // so the tables may evaluate the equation with its arguments swapped.
  stats_.pairings += 2;
  if (rc::generator_table().pairing(sig_acc) !=
      group_pk_table_.pairing(msg_acc)) {
    return false;
  }
  // The whole batch verified: seed the memo so later individual verifies of
  // these certificates are hits.
  for (const ThresholdSig& s : sigs) {
    group_memo_.record({s.digest.bits, s.tag}, true);
  }
  return true;
}

}  // namespace mewc
