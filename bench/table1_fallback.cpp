// Experiment E4 — Table 1, row "Strong BA: O(n^2) multi-valued
// (Momose-Ren)" and the Omega(nf) lower-bound shape.
//
// Measures the fallback-regime cost: the always-fallback baseline (the
// non-adaptive strategy: run A_fallback unconditionally) against the
// adaptive weak BA, plus the measured-vs-modeled fallback cost (our
// Dolev-Strong substitute is Theta(n^3) worst case; Momose-Ren's protocol
// is Theta(n^2) — DESIGN.md SUB-1 reports both so the Table 1 shape can be
// compared honestly).
#include <benchmark/benchmark.h>

#include "ba/fallback/cost_model.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"

namespace mewc::bench {
namespace {

const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");
const harness::ProtocolDriver& kFallbackBa = *harness::find_driver("fallback");

void fallback_cost_vs_n() {
  subheading("A_fallback standalone cost vs n (f = 0, all participate)");
  Table tab({"n", "measured words", "measured/n^3", "modeled MR words",
             "modeled/n^2"});
  std::vector<double> ns, words;
  for (std::uint32_t t : {2u, 5u, 10u, 15u, 20u}) {
    const auto n = n_for_t(t);
    adv::NullAdversary adversary;
    auto spec = harness::RunSpec::for_t(t);
    const auto res = kFallbackBa.run(
        spec, {kFallbackBa.prepare(spec.n, Value(1))}, adversary);
    ns.push_back(n);
    words.push_back(static_cast<double>(res.meter.words_correct));
    const double n3 = static_cast<double>(n) * n * n;
    tab.row({u64(n), u64(res.meter.words_correct),
             fixed2(res.meter.words_correct / n3),
             u64(fallback::modeled_momose_ren_words(n)),
             fixed2(static_cast<double>(fallback::modeled_momose_ren_words(n)) /
                    (static_cast<double>(n) * n))});
  }
  tab.print();
  const auto fit = stats::fit_power_law(ns, words);
  std::printf(
      "Fitted growth order of the substituted fallback: words ~ n^%.2f "
      "(r2=%.4f); the paper's Momose-Ren box is n^2 (modeled column).\n",
      fit.slope, fit.r2);
}

void adaptive_vs_always_fallback() {
  subheading(
      "who wins: adaptive weak BA vs always-fallback baseline (crash, n=21)");
  const std::uint32_t t = 10;
  Table tab({"f", "adaptive words", "always-fallback words", "factor"});
  for (std::uint32_t f : {0u, 1u, 3u, 5u, 8u, 10u}) {
    auto spec = harness::RunSpec::for_t(t);
    adv::CrashAdversary a1(first_f(f)), a2(first_f(f));
    const auto adaptive =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, a1);
    const auto baseline =
        kFallbackBa.run(spec, {kFallbackBa.prepare(spec.n, Value(7))}, a2);
    tab.row({u64(f), u64(adaptive.meter.words_correct),
             u64(baseline.meter.words_correct),
             fixed2(static_cast<double>(baseline.meter.words_correct) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1,
                                                adaptive.meter
                                                    .words_correct)))});
  }
  tab.print();
  std::printf(
      "Shape check: the adaptive protocol wins by a factor shrinking as f\n"
      "approaches t — the crossover the paper's adaptivity targets (runs in\n"
      "common, low-f cases cost a vanishing fraction of the worst case).\n");
}

void crash_resilience_of_fallback() {
  subheading("A_fallback words vs f (n = 21, crash): flat in f");
  const std::uint32_t t = 10;
  Table tab({"f", "words", "agreement"});
  for (std::uint32_t f : {0u, 2u, 5u, 10u}) {
    auto spec = harness::RunSpec::for_t(t);
    adv::CrashAdversary adversary(first_f(f));
    const auto res = kFallbackBa.run(
        spec, {kFallbackBa.prepare(spec.n, Value(3))}, adversary);
    tab.row({u64(f), u64(res.meter.words_correct),
             res.agreement() ? "yes" : "NO"});
  }
  tab.print();
}

void bm_fallback(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t words = 0;
  for (auto _ : state) {
    auto spec = harness::RunSpec::for_t(t);
    adv::NullAdversary adversary;
    const auto res = kFallbackBa.run(
        spec, {kFallbackBa.prepare(spec.n, Value(1))}, adversary);
    words = res.meter.words_correct;
    benchmark::DoNotOptimize(words);
  }
  state.counters["words"] = static_cast<double>(words);
  state.counters["n"] = n_for_t(t);
}

BENCHMARK(bm_fallback)->Arg(2)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading(
      "Table 1 / E4: fallback-regime strong BA (Momose-Ren black box)");
  mewc::bench::fallback_cost_vs_n();
  mewc::bench::adaptive_vs_always_fallback();
  mewc::bench::crash_resilience_of_fallback();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
