// Trusted PKI setup and per-process signatures (paper Section 2).
//
// Two signature models behind one interface (DESIGN.md SUB-2):
//
//  * kSim / kShamir — the simulation runs in a single address space, so
//    signatures are modeled as keyed MACs whose key material lives
//    exclusively inside the Pki object. A process (or the adversary, for
//    corrupted processes) signs through a PrivateKey handle; the adversary
//    API only ever receives handles for corrupted processes, so within the
//    simulation a signature verifying under pid proves pid's handle produced
//    it — exactly the reliable-authenticated-link guarantee the paper
//    assumes.
//  * kReal — BLS signatures over the pairing curve in crypto/realcurve.hpp:
//    per-process secret scalars, published public keys certified at setup by
//    Schnorr proofs of possession (crypto/ed_sig.hpp — the rogue-key
//    defense), pairing-equation verification, and point-addition aggregation
//    for multisignatures. Same one-word tags, same wire shapes, same
//    protocol behavior; only the verification algebra (and its wall-clock
//    cost) is real.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/types.hpp"
#include "crypto/agg_threshold.hpp"
#include "crypto/digest.hpp"
#include "crypto/ed_sig.hpp"

namespace mewc {

/// Which algebra backs signatures and threshold schemes for a run. Selected
/// at RunSpec level; behavior is identical across backends by construction
/// (the differential harness in tests/crypto/differential_test.cpp pins it).
enum class ThresholdBackend {
  kSim,     // ideal registry-enforced scheme
  kShamir,  // real Shamir shares + Lagrange combination, dealer-verified
  kReal,    // BLS over the real curve: pairing-verified, no trapdoor
};

/// Canonical lowercase name, the shared vocabulary of grid JSON, replay
/// files, tool flags and bench labels.
[[nodiscard]] constexpr const char* backend_name(ThresholdBackend b) {
  switch (b) {
    case ThresholdBackend::kShamir:
      return "shamir";
    case ThresholdBackend::kReal:
      return "real";
    case ThresholdBackend::kSim:
      break;
  }
  return "sim";
}

[[nodiscard]] constexpr std::optional<ThresholdBackend> parse_backend(
    std::string_view s) {
  if (s == "sim") return ThresholdBackend::kSim;
  if (s == "shamir") return ThresholdBackend::kShamir;
  if (s == "real") return ThresholdBackend::kReal;
  return std::nullopt;
}

class Pki;

/// An individual signature <m>_p: one word in the paper's cost model.
struct Signature {
  ProcessId signer = kNoProcess;
  Digest digest;
  std::uint64_t tag = 0;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.signer == b.signer && a.digest == b.digest && a.tag == b.tag;
  }
};

/// Signing capability for one process. Move-only: custody of the handle is
/// custody of the identity.
class PrivateKey {
 public:
  PrivateKey(PrivateKey&&) noexcept = default;
  PrivateKey& operator=(PrivateKey&&) noexcept = default;
  PrivateKey(const PrivateKey&) = delete;
  PrivateKey& operator=(const PrivateKey&) = delete;

  [[nodiscard]] ProcessId owner() const { return owner_; }

  /// Signs a digest. Also bumps the Pki signature-issuance counter, which
  /// experiment E8 uses to reproduce the Dolev-Reischuk Omega(nt)-signatures
  /// observation.
  [[nodiscard]] Signature sign(Digest d) const;

 private:
  friend class Pki;
  PrivateKey(const Pki* pki, ProcessId owner) : pki_(pki), owner_(owner) {}

  const Pki* pki_;
  ProcessId owner_;
};

/// Trusted setup: mints one key pair per process plus the threshold-scheme
/// secrets (see crypto/threshold.hpp, crypto/shamir.hpp,
/// crypto/agg_threshold.hpp). One Pki per run.
class Pki {
 public:
  explicit Pki(std::uint32_t n, std::uint64_t seed = 0x5e7u,
               ThresholdBackend backend = ThresholdBackend::kSim);

  [[nodiscard]] std::uint32_t n() const {
    return static_cast<std::uint32_t>(secrets_.size());
  }
  [[nodiscard]] ThresholdBackend backend() const { return backend_; }

  /// Hands out the signing handle for `pid`. Call once per identity; the
  /// executor gives it to the process (or to the adversary if corrupted).
  [[nodiscard]] PrivateKey issue_key(ProcessId pid) const;

  [[nodiscard]] bool verify(const Signature& sig) const;

  /// Verifies an XOR-aggregated MAC over `signers` (the ideal-backend
  /// aggregate; see verify_aggregate for the backend-dispatching entry).
  [[nodiscard]] bool verify_mac_xor(Digest d,
                                    std::span<const ProcessId> signers,
                                    std::uint64_t tag) const;

  /// Verifies an aggregate multisignature tag over `signers`: XOR of MACs
  /// for the ideal backends, one pairing pair against the summed public
  /// keys for kReal (see crypto/multisig.hpp). kReal results are memoized
  /// under (digest, tag, the full signer list): the same tag claimed for a
  /// different set is a different statement and is verified afresh.
  [[nodiscard]] bool verify_aggregate(Digest d,
                                      std::span<const ProcessId> signers,
                                      std::uint64_t tag) const;

  /// Folds one more signature tag into an aggregate tag: XOR for the ideal
  /// backends, point addition for kReal. An undecodable real tag poisons
  /// the aggregate (rc::kBadEncoding), which can never verify.
  [[nodiscard]] std::uint64_t aggregate_fold(std::uint64_t agg_tag,
                                             std::uint64_t sig_tag) const;

  /// kReal key material, published at setup (tests and the PoP audit):
  /// the BLS public key and its Schnorr proof of possession.
  [[nodiscard]] std::uint64_t bls_pk_enc(ProcessId pid) const;
  [[nodiscard]] const EdSig& pop_of(ProcessId pid) const;
  /// Re-checks one process's proof of possession — what an aggregator runs
  /// before admitting a key into a multisignature universe.
  [[nodiscard]] bool verify_pop(ProcessId pid, std::uint64_t pk_enc,
                                const EdSig& pop) const;

  /// Total individual signatures issued so far (all signers).
  [[nodiscard]] std::uint64_t signatures_issued() const {
    return signatures_issued_;
  }
  [[nodiscard]] std::uint64_t signatures_issued_by(ProcessId pid) const {
    return per_signer_issued_[pid];
  }
  void reset_signature_counters();

  /// Pairing/memo counters (kReal; zero for the ideal backends).
  [[nodiscard]] const CryptoVerifyStats& crypto_verify_stats() const {
    return crypto_stats_;
  }
  void reset_crypto_verify_stats() const { crypto_stats_ = {}; }

  /// Master seed for deriving threshold-scheme secrets deterministically.
  [[nodiscard]] std::uint64_t master_seed() const { return master_seed_; }

 private:
  friend class PrivateKey;
  [[nodiscard]] std::uint64_t mac(ProcessId signer, Digest d) const;
  [[nodiscard]] std::uint64_t sign_tag(ProcessId signer, Digest d) const;

  ThresholdBackend backend_ = ThresholdBackend::kSim;
  std::vector<std::uint64_t> secrets_;
  std::uint64_t master_seed_;
  // kReal: per-process BLS key pairs and their proofs of possession.
  std::vector<std::uint64_t> bls_sks_;
  std::vector<rc::Point> bls_pks_;
  std::vector<rc::PairingTable> bls_pk_tables_;
  std::vector<std::uint64_t> bls_pk_encs_;
  std::vector<EdKeyPair> pop_keys_;
  std::vector<EdSig> pops_;
  // kReal verification-result memos (crypto/verify_memo.hpp).
  mutable VerifyMemo<std::tuple<ProcessId, std::uint64_t, std::uint64_t>>
      verify_memo_;
  mutable VerifyMemo<
      std::tuple<std::uint64_t, std::uint64_t, std::vector<ProcessId>>>
      aggregate_memo_;
  mutable CryptoVerifyStats crypto_stats_;
  mutable std::uint64_t signatures_issued_ = 0;
  mutable std::vector<std::uint64_t> per_signer_issued_;
};

}  // namespace mewc
