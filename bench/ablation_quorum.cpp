// Experiment E7 — the paper's key observation (Section 6): quorum
// certificates need ceil((n+t+1)/2) signatures at n = 2t+1.
//
// The natural n-t threshold from the n = 3t+1 world loses its intersection
// property here: with f = t corrupted shares, an adversary can assemble two
// conflicting (n-t)-certificates from disjoint correct voters. With the
// paper's quorum it provably cannot. This ablation performs the actual
// forgery with real threshold shares and reports when it succeeds, and
// tabulates the analytic safety/liveness trade-off.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "crypto/family.hpp"

namespace mewc::bench {
namespace {

const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");

/// Attempts to assemble certificates on two conflicting values using f
/// corrupted shares (which sign both) and a disjoint split of correct
/// voters. Returns true if both certificates verify: a safety violation.
bool forge_conflicting_certs(std::uint32_t n, std::uint32_t /*t*/,
                             std::uint32_t quorum, std::uint32_t f) {
  // One scheme per quorum size; shares 0..f-1 are "corrupted".
  SimThreshold scheme(quorum, n, 0xfeed);
  const Digest dv = DigestBuilder("ablation").field(1).done();
  const Digest dw = DigestBuilder("ablation").field(2).done();

  std::vector<PartialSig> cert_v, cert_w;
  for (ProcessId p = 0; p < f; ++p) {  // Byzantine: sign both values
    cert_v.push_back(scheme.issue_share(p).partial_sign(dv));
    cert_w.push_back(scheme.issue_share(p).partial_sign(dw));
  }
  // Correct voters vote once each; split them between the two values.
  ProcessId next = f;
  while (cert_v.size() < quorum && next < n) {
    cert_v.push_back(scheme.issue_share(next++).partial_sign(dv));
  }
  while (cert_w.size() < quorum && next < n) {
    cert_w.push_back(scheme.issue_share(next++).partial_sign(dw));
  }
  const auto qv = scheme.combine(cert_v);
  const auto qw = scheme.combine(cert_w);
  return qv.has_value() && qw.has_value() && scheme.verify(*qv) &&
         scheme.verify(*qw);
}

void forgery_table() {
  subheading("concrete conflicting-certificate forgery, f = t shares");
  Table tab({"n", "t", "quorum n-t", "forged?", "quorum ceil((n+t+1)/2)",
             "forged?"});
  for (std::uint32_t t : {2u, 5u, 10u, 20u, 50u}) {
    const auto n = n_for_t(t);
    const bool naive = forge_conflicting_certs(n, t, n - t, t);
    const bool paper = forge_conflicting_certs(n, t, commit_quorum(n, t), t);
    tab.row({u64(n), u64(t), u64(n - t), naive ? "YES (unsafe)" : "no",
             u64(commit_quorum(n, t)), paper ? "YES (unsafe)" : "no"});
  }
  tab.print();
}

void tradeoff_table() {
  subheading("analytic safety/liveness trade-off per quorum size (n = 21)");
  const std::uint32_t t = 10;
  const auto n = n_for_t(t);
  Table tab({"quorum q", "intersection 2q-n", "safe (>= t+1)",
             "live while f <=", "note"});
  // At n = 2t+1, n-t equals t+1: the classic n-t certificate "loses its
  // power" (Section 4) — exactly the paper's motivation for a new quorum.
  for (std::uint32_t q :
       {n - t, (n - t + commit_quorum(n, t)) / 2, commit_quorum(n, t),
        static_cast<std::uint32_t>(n)}) {
    const std::int64_t inter = 2 * static_cast<std::int64_t>(q) - n;
    const bool safe = inter >= static_cast<std::int64_t>(t) + 1;
    const std::int64_t live_f = static_cast<std::int64_t>(n) - q;
    std::string note;
    if (q == n - t) note = "classic n-t (= t+1 at n=2t+1: powerless)";
    if (q == commit_quorum(n, t)) note = "the paper's choice";
    if (q == n) note = "Algorithm 5's decide certificate";
    tab.row({u64(q), std::to_string(inter), safe ? "yes" : "NO",
             std::to_string(live_f), note});
  }
  tab.print();
  std::printf(
      "The paper's quorum is the smallest safe one, which maximizes the\n"
      "adaptive regime f <= n - q; failing to reach it certifies f = Θ(t),\n"
      "which is what licenses the quadratic fallback (Section 6).\n");
}

void protocol_level_check() {
  subheading("protocol-level: cert-split adversary vs the paper's quorum");
  const std::uint32_t t = 5;
  Table tab({"adversary", "agreement", "distinct decisions"});
  auto spec = harness::RunSpec::for_t(t);
  adv::WbaCertSplit adversary(spec.instance, 1, WireValue::plain(Value(9)),
                              2, 1);
  const auto res =
      kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(3))}, adversary);
  std::uint32_t distinct = 0;
  std::vector<std::uint64_t> seen;
  for (const auto& s : res.outcomes) {
    if (!s) continue;
    if (std::find(seen.begin(), seen.end(), s->decision.value.raw) ==
        seen.end()) {
      seen.push_back(s->decision.value.raw);
      ++distinct;
    }
  }
  tab.row({"cert split + finalize withholding",
           res.agreement() ? "yes" : "NO", u64(distinct)});
  tab.print();
}

void bm_forgery(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        forge_conflicting_certs(n_for_t(t), t, n_for_t(t) - t, t));
  }
}

BENCHMARK(bm_forgery)->Arg(5)->Arg(20)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading(
      "E7: quorum-size ablation — why ceil((n+t+1)/2) (Section 6)");
  mewc::bench::forgery_table();
  mewc::bench::tradeoff_table();
  mewc::bench::protocol_level_check();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
