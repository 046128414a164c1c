// BLS-style signatures over the real curve (crypto/realcurve.hpp): the
// pairing-verified backend behind ThresholdBackend::kReal.
//
//  * Per-process signatures: sigma = sk * H(d); verification is the pairing
//    equation e(sigma, G) == e(H(d), pk) — no shared secret, no registry.
//  * Multisignatures: signatures on one digest aggregate by point addition;
//    one pairing pair verifies the whole certificate against sum(pk_i).
//  * RealThreshold: Shamir shares of the group secret in Z_q, partials are
//    share-signatures s_i * H_k(d), any k of them Lagrange-combine *in the
//    exponent* to the unique group signature s * H_k(d). Verification is by
//    pairing against published share/group public keys — unlike
//    ShamirThreshold there is no dealer trapdoor anywhere.
//
// Every tag is one compressed point = one u64 = one word, so the real
// backend changes no wire shapes and no Table-1 word counts. Verification
// results (never tags) are memoized per scheme, keyed by the full
// (signer, digest, tag) triple: across the phases of one protocol run — and
// across cached-setup runs — each certificate costs one pairing check total
// instead of one per receiving process (crypto/verify_memo.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "crypto/realcurve.hpp"
#include "crypto/threshold.hpp"
#include "crypto/verify_memo.hpp"

namespace mewc {

/// Domain-separated hash of a digest onto the order-q subgroup.
[[nodiscard]] rc::Point bls_message_point(std::string_view domain,
                                          std::uint64_t bits);

/// sigma = sk * H: sign a prepared message point.
[[nodiscard]] std::uint64_t bls_sign_at(std::uint64_t sk, rc::Point h);

/// Checks e(sigma, G) == e(H, pk) — two pairings, evaluated as e(G, sigma)
/// and e(pk, H) from fixed-argument tables. `pk` must be the table of a key
/// in the order-q subgroup and `h` a hash_to_point output (see
/// rc::PairingTable); sigma is subgroup-checked here. `stats` may be null.
[[nodiscard]] bool bls_verify_at(const rc::PairingTable& pk, rc::Point h,
                                 std::uint64_t tag, CryptoVerifyStats* stats);

/// (k, n)-threshold BLS: Shamir in the exponent, pairing verification.
class RealThreshold final : public ThresholdScheme {
 public:
  RealThreshold(std::uint32_t k, std::uint32_t n, std::uint64_t seed);

  [[nodiscard]] bool verify_partial(const PartialSig& p) const override;
  [[nodiscard]] bool verify(const ThresholdSig& sig) const override;

  /// Random-weight batch verification: accepts iff every signature in the
  /// batch verifies (up to the q^-1 soundness error of the weights), at a
  /// cost of two pairings plus two scalar multiplications per signature —
  /// instead of two pairings per signature. Callers fall back to individual
  /// verify() on failure to identify the offenders.
  [[nodiscard]] bool verify_batch(std::span<const ThresholdSig> sigs) const;

  /// Exposed for tests: the share point x_i = i + 1 of process i, the
  /// published share/group public keys.
  [[nodiscard]] static std::uint64_t x_coord(ProcessId pid) { return pid + 1; }
  [[nodiscard]] std::uint64_t group_pk_enc() const {
    return rc::compress(group_pk_);
  }
  [[nodiscard]] std::uint64_t share_pk_enc(ProcessId pid) const {
    return rc::compress(share_pks_[pid]);
  }

  [[nodiscard]] const CryptoVerifyStats& verify_stats() const {
    return stats_;
  }
  void reset_verify_stats() const { stats_ = CryptoVerifyStats{}; }

 protected:
  [[nodiscard]] PartialSig make_partial(ProcessId signer,
                                        Digest d) const override;
  [[nodiscard]] std::uint64_t combine_tag(
      std::span<const PartialSig> chosen) const override;

 private:
  [[nodiscard]] rc::Point message_point(Digest d) const;

  std::vector<std::uint64_t> shares_;    // s_i = P(x_i) in Z_q (secret)
  std::vector<rc::Point> share_pks_;     // s_i * G (public)
  rc::Point group_pk_;                   // P(0) * G; P(0) itself is dropped
  std::vector<rc::PairingTable> share_pk_tables_;
  rc::PairingTable group_pk_table_;
  mutable VerifyMemo<std::tuple<ProcessId, std::uint64_t, std::uint64_t>>
      partial_memo_;
  mutable VerifyMemo<std::tuple<std::uint64_t, std::uint64_t>> group_memo_;
  mutable CryptoVerifyStats stats_;
};

}  // namespace mewc
