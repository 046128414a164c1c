// Deterministic protocol coverage map: a fixed-size hit-count table over a
// closed set of annotated branch sites, each named after the paper line it
// implements (alg3_line21_fallback_echo = Algorithm 3, line 21, the
// fallback-certificate echo). The protocol modules mark the load-bearing
// branches of Algorithms 1-5 with MEWC_COV(site); a campaign cell or fuzz
// run installs a CoverageScope and reads back exactly which paper lines the
// run reached.
//
// Design constraints (mirroring pool::StatsScope in net/arena.hpp):
//  * allocation-free: the map is a fixed std::array owned by the scope;
//    recording a hit is an increment through a thread-local pointer.
//  * zero-cost when disabled: with no scope installed the macro is a
//    thread-local load and a predictable not-taken branch — the round loop
//    stays heap-quiet and within perf-regression noise.
//  * deterministic: a CellSpec fully determines the run, so it fully
//    determines the map; two runs of the same cell produce identical maps.
//  * thread-scoped: campaign workers run whole cells single-threaded, so a
//    per-thread active map gives per-cell coverage with no bleed between
//    workers. Scopes nest (the inner scope shadows, then restores).
//
// This header is dependency-free on purpose: the protocol modules under
// src/ba include it, and it must not drag the check subsystem into them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mewc::cov {

// The annotated-site list, one X() per site, grouped by paper algorithm.
// Naming convention: alg<K>_line<L>_<slug> points at Algorithm K, line L of
// the paper (arXiv v2 numbering, the same the lemma tests use);
// bbvalid_* covers the BB_valid predicate (Section 5), afb_* the A_fallback
// Dolev-Strong execution. Sites provably unreachable by any adversary
// (e.g. the Lemma 21 liveness hole in weak_ba.cpp) are deliberately NOT
// annotated, so "every site covered" is an achievable bar.
#define MEWC_COV_SITE_LIST(X)                                        \
  /* Algorithm 1 — Byzantine Broadcast wrapper */                    \
  X(alg1_line2_sender_broadcast)  /* sender signs + broadcasts */    \
  X(alg1_line4_adopt_sender_value)                                   \
  X(alg1_line9_enter_weak_ba)                                        \
  X(alg1_line11_decide_signed)    /* BA decision carries sender sig */\
  X(alg1_line13_decide_bottom)                                       \
  /* Algorithm 2 — BB vetting phase */                               \
  X(alg2_line15_silent_phase)     /* leader has a value: stays quiet */\
  X(alg2_line16_help_request)                                        \
  X(alg2_line18_reply_value)                                         \
  X(alg2_line20_reply_idk)                                           \
  X(alg2_line23_leader_relay_value)                                  \
  X(alg2_line25_leader_idk_cert)                                     \
  X(alg2_line28_reject_leader_value)                                 \
  X(alg2_line29_adopt_leader_value)                                  \
  /* BB_valid predicate (Section 5) */                               \
  X(bbvalid_signed_accept)                                           \
  X(bbvalid_signed_reject)                                           \
  X(bbvalid_cert_accept)                                             \
  X(bbvalid_cert_reject)                                             \
  X(bbvalid_plain_reject)                                            \
  /* Algorithm 4 — weak BA phase */                                  \
  X(alg4_line31_propose)                                             \
  X(alg4_line31_silent_decided)   /* decided leader: silent phase */  \
  X(alg4_line34_vote_scheduled)                                      \
  X(alg4_line36_report_commit)                                       \
  X(alg4_line38_vote_collected)                                      \
  X(alg4_line39_commit_report_best)                                  \
  X(alg4_line39_reject_commit_report)                                \
  X(alg4_line37_leader_echo_commit)                                  \
  X(alg4_line41_leader_fresh_qc)                                     \
  X(alg4_line43_adopt_commit)                                        \
  X(alg4_line43_reject_commit)                                       \
  X(alg4_line49_decide_collected)                                    \
  X(alg4_line50_finalize)                                            \
  X(alg4_line52_reject_finalize)                                     \
  X(alg4_line53_decide_finalize)                                     \
  /* Algorithm 3 — weak BA tail: help round, fallback trigger */     \
  X(alg3_line5_help_request)                                         \
  X(alg3_line5_silent_decided)    /* decided: no help request */     \
  X(alg3_line8_help_reply)                                           \
  X(alg3_line10_fallback_cert_combine)                               \
  X(alg3_line13_adopt_help_decision)                                 \
  X(alg3_line13_reject_help)                                         \
  X(alg3_line16_reject_fallback_cert)                                \
  X(alg3_line17_note_fallback_cert)                                  \
  X(alg3_line19_adopt_bu)                                            \
  X(alg3_line21_fallback_echo)                                       \
  X(alg3_line22_late_decision_rebroadcast) /* NOTE-2 window resend */ \
  X(alg3_line24_enter_fallback)                                      \
  X(alg3_line26_fallback_decide)                                     \
  X(alg3_line28_fallback_decide_bottom)                              \
  /* Algorithm 5 — strong binary BA */                               \
  X(alg5_line2_send_input)                                           \
  X(alg5_line5_propose_cert)                                         \
  X(alg5_line7_accept_propose_cert)                                  \
  X(alg5_line8_decide_vote)                                          \
  X(alg5_line11_decide_cert)                                         \
  X(alg5_line14_fast_decide)                                         \
  X(alg5_line16_silent_decided)   /* decided: no alarm */            \
  X(alg5_line17_alarm)                                               \
  X(alg5_line20_echo_scheduled)                                      \
  X(alg5_line23_adopt_bu)                                            \
  X(alg5_line26_echo)                                                \
  X(alg5_line28_enter_fallback)                                      \
  X(alg5_line30_slow_decide)                                         \
  /* A_fallback — Dolev-Strong execution (Momose-Ren handoff) */     \
  X(afb_broadcast_input)                                             \
  X(afb_accept)                                                      \
  X(afb_relay)                                                       \
  X(afb_reject_chain)                                                \
  X(afb_decide_majority)                                             \
  X(afb_decide_empty)

enum class Site : std::uint16_t {
#define MEWC_COV_ENUM(name) name,
  MEWC_COV_SITE_LIST(MEWC_COV_ENUM)
#undef MEWC_COV_ENUM
};

inline constexpr std::size_t kSiteCount = [] {
  std::size_t n = 0;
#define MEWC_COV_COUNT(name) ++n;
  MEWC_COV_SITE_LIST(MEWC_COV_COUNT)
#undef MEWC_COV_COUNT
  return n;
}();

/// Stable site name (the X-macro identifier), for reports and JSON.
[[nodiscard]] std::string_view site_name(Site s);

/// Reverse lookup for CLI flags like --require-site; kSiteCount when the
/// name is unknown (compare the result against kSiteCount, not Site).
[[nodiscard]] std::size_t site_index_of(std::string_view name);

/// Fixed-size hit-count table: hits[i] counts executions of site i within
/// the owning scope.
struct CoverageMap {
  std::array<std::uint32_t, kSiteCount> hits{};

  [[nodiscard]] std::uint32_t count(Site s) const {
    return hits[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::size_t sites_covered() const {
    std::size_t n = 0;
    for (const std::uint32_t h : hits) n += h != 0 ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::uint64_t total_hits() const {
    std::uint64_t n = 0;
    for (const std::uint32_t h : hits) n += h;
    return n;
  }
  [[nodiscard]] bool operator==(const CoverageMap&) const = default;
};

/// Covered-site bitmap: the coverage signal the fuzzer accumulates (hit
/// counts collapse to one bit per site, so "new coverage" means "a site no
/// prior run reached").
struct Bitmap {
  std::array<std::uint64_t, (kSiteCount + 63) / 64> words{};

  void set(Site s) {
    const auto i = static_cast<std::size_t>(s);
    words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  [[nodiscard]] bool test(Site s) const {
    const auto i = static_cast<std::size_t>(s);
    return (words[i / 64] >> (i % 64)) & 1;
  }
  [[nodiscard]] std::size_t count() const;
  /// ORs `other` in; returns true when any previously-unset bit appeared.
  bool merge(const Bitmap& other);
  /// Bits of *this not present in `other` (an entry's novel contribution).
  [[nodiscard]] Bitmap minus(const Bitmap& other) const;
  /// True when every bit of `required` is set in *this.
  [[nodiscard]] bool covers(const Bitmap& required) const;
  [[nodiscard]] bool any() const;
  [[nodiscard]] bool operator==(const Bitmap&) const = default;
};

[[nodiscard]] Bitmap to_bitmap(const CoverageMap& map);

namespace detail {
// Active map of the calling thread; nullptr outside any CoverageScope.
extern constinit thread_local CoverageMap* g_active;
}  // namespace detail

/// Records one execution of `s` into the calling thread's active scope;
/// no-op (one TLS load, one branch) when no scope is installed.
inline void hit(Site s) noexcept {
  CoverageMap* m = detail::g_active;
  if (m != nullptr) ++m->hits[static_cast<std::size_t>(s)];
}

/// RAII coverage collector, used exactly like pool::StatsScope: construct
/// before run_cell, read map() after. Owns its storage (no allocation),
/// installs itself as the thread's active map, restores the previous one on
/// destruction (scopes nest; the innermost wins).
class CoverageScope {
 public:
  CoverageScope() : prev_(detail::g_active) { detail::g_active = &map_; }
  ~CoverageScope() { detail::g_active = prev_; }
  CoverageScope(const CoverageScope&) = delete;
  CoverageScope& operator=(const CoverageScope&) = delete;

  [[nodiscard]] const CoverageMap& map() const { return map_; }
  [[nodiscard]] Bitmap bitmap() const { return to_bitmap(map_); }

 private:
  CoverageMap map_;
  CoverageMap* prev_;
};

}  // namespace mewc::cov

/// Branch-site annotation: MEWC_COV(alg3_line24_enter_fallback) marks the
/// enclosing branch as "Algorithm 3 line 24 executed". Compiles to a
/// thread-local pointer check; free when no CoverageScope is active.
#define MEWC_COV(site) ::mewc::cov::hit(::mewc::cov::Site::site)
