// Bounded verification-result memo behind every kReal verify path: Pki
// individual and aggregate signatures, RealThreshold partials and group
// signatures. It stores results, never tags, under the exact inputs that
// were verified, so a memo that outlives one run (a harness::SetupCache
// family) answers exactly what a fresh verification would: cached-setup
// runs stay bit-identical to fresh ones. At the bound it clears rather than
// evicts, which keeps the structure trivial; the worst case is
// re-verification, never a wrong answer. Not thread-safe: one memo per
// scheme, and schemes are per worker via harness::SetupCache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

namespace mewc {

/// Pairing-evaluation and memo-hit counters, aggregated into EngineStats by
/// the SMR engine and reported by the E-CRYPTO bench.
struct CryptoVerifyStats {
  std::uint64_t pairings = 0;
  std::uint64_t memo_hits = 0;

  CryptoVerifyStats& operator+=(const CryptoVerifyStats& o) {
    pairings += o.pairings;
    memo_hits += o.memo_hits;
    return *this;
  }
};

template <typename Key>
class VerifyMemo {
 public:
  static constexpr std::size_t kBound = std::size_t{1} << 16;

  /// The recorded result for `key`, counted as a memo hit in `stats`; on a
  /// miss, runs `verify()` and records what it returns.
  template <typename Verify>
  [[nodiscard]] bool get_or_verify(Key key, CryptoVerifyStats& stats,
                                   Verify&& verify) {
    if (const auto it = results_.find(key); it != results_.end()) {
      ++stats.memo_hits;
      return it->second;
    }
    const bool ok = std::forward<Verify>(verify)();
    record(std::move(key), ok);
    return ok;
  }

  /// Records a result established elsewhere (a passing batch verification).
  /// An existing entry for `key` is kept.
  void record(Key key, bool ok) {
    if (results_.size() >= kBound) results_.clear();
    results_.emplace(std::move(key), ok);
  }

 private:
  std::map<Key, bool> results_;
};

}  // namespace mewc
