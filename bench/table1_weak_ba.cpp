// Experiment E2 — Table 1, row "Weak BA: O(n(f+1)) multi-valued".
//
// Sweeps f across and beyond the adaptive boundary f <= n - ceil((n+t+1)/2)
// at fixed n: inside it, words grow linearly in f and the fallback never
// runs (Lemma 6); beyond it, the run funnels into A_fallback and the cost
// jumps to the worst-case regime (measured for our Dolev-Strong substitute,
// modeled quadratic for Momose-Ren; DESIGN.md SUB-1).
#include <benchmark/benchmark.h>

#include "ba/fallback/cost_model.hpp"
#include "bench_util.hpp"

namespace mewc::bench {
namespace {

const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");

harness::RunReport run_wba(std::uint32_t t, std::uint32_t f) {
  auto spec = harness::RunSpec::for_t(t);
  adv::CrashAdversary adversary(first_f(f));
  return kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adversary);
}

void words_vs_f_full_range() {
  const std::uint32_t t = 10;  // n = 21, boundary f <= 5
  const auto n = n_for_t(t);
  subheading(
      "weak BA words vs f (n = 21, crash): adaptive regime, then fallback");
  Table tab({"f", "regime", "words", "words/(n(f+1))", "fallback",
             "modeled Momose-Ren words"});
  for (std::uint32_t f = 0; f <= t; ++f) {
    const auto res = run_wba(t, f);
    const bool adaptive = adaptive_regime(n, t, f);
    tab.row({u64(f), adaptive ? "adaptive" : "worst-case",
             u64(res.meter.words_correct),
             fixed2(static_cast<double>(res.meter.words_correct) /
                    (static_cast<double>(n) * (f + 1))),
             res.any_fallback() ? "yes" : "no",
             res.any_fallback()
                 ? u64(fallback::modeled_momose_ren_words(n))
                 : std::string("-")});
  }
  tab.print();
  std::printf(
      "Shape check: words/(n(f+1)) is flat while regime=adaptive, and the\n"
      "fallback column flips exactly past the boundary (Lemma 6).\n");
}

void words_vs_f_leader_killer() {
  const std::uint32_t t = 10;
  const auto n = n_for_t(t);
  subheading(
      "weak BA words vs f (n = 21, mid-phase leader killer: the worst-case "
      "adaptive pattern)");
  Table tab({"f", "words", "words/(n(f+1))", "non-silent phases"});
  for (std::uint32_t f = 0; f <= adaptive_boundary(n, t); ++f) {
    auto spec = harness::RunSpec::for_t(t);
    // Corrupt each upcoming leader after its propose (phase local round 3):
    // every burned phase costs a full O(n).
    adv::AdaptiveLeaderCrash adversary(3, 5, spec.n, f);
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adversary);
    tab.row({u64(res.f()), u64(res.meter.words_correct),
             fixed2(static_cast<double>(res.meter.words_correct) /
                    (static_cast<double>(n) * (res.f() + 1))),
             u64(active_windows(res.meter, 1, 5, spec.n))});
  }
  tab.print();
  std::printf(
      "Words grow linearly in f (each burned phase costs O(n)); the plain\n"
      "crash sweep above shows failures that die quietly cost nothing —\n"
      "both are within the paper's O(n(f+1)).\n");
}

void words_vs_n_adaptive() {
  subheading("weak BA words vs n (f = 0 and f = 2, adaptive regime)");
  Table tab({"n", "words f=0", "(f=0)/n", "words f=2", "(f=2)/(3n)"});
  for (std::uint32_t t : {5u, 10u, 20u, 40u, 60u}) {
    const auto n = n_for_t(t);
    const auto r0 = run_wba(t, 0);
    const auto r2 = run_wba(t, 2);
    tab.row({u64(n), u64(r0.meter.words_correct),
             fixed2(static_cast<double>(r0.meter.words_correct) / n),
             u64(r2.meter.words_correct),
             fixed2(static_cast<double>(r2.meter.words_correct) / (3.0 * n))});
  }
  tab.print();
}

void help_cost_vs_spam() {
  subheading(
      "help-round answer cost vs Byzantine help_req spam (Section 6: O(nf))");
  // Stay within the adaptive boundary: beyond it the run enters the
  // fallback and the help round carries certificate traffic too.
  const std::uint32_t t = 10;
  Table tab({"spammers f", "help-round words", "words/((n-f)*f)"});
  for (std::uint32_t spam : {1u, 2u, 3u, 4u, 5u}) {
    auto spec = harness::RunSpec::for_t(t);
    const Round help_round = 5 * spec.n + 1;
    adv::WbaHelpSpam adversary(spec.instance, help_round, spam, false, 0);
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adversary);
    const std::uint64_t words =
        res.meter.words_in_rounds(help_round + 1, help_round + 2);
    tab.row({u64(spam), u64(words),
             fixed2(static_cast<double>(words) /
                    (static_cast<double>(spec.n - spam) * spam))});
  }
  tab.print();
  std::printf(
      "Each decided (correct) process answers each spammer once: the help\n"
      "answer cost is Theta((n-f) * f) = O(nf), independent of t, as the\n"
      "Section 6 analysis states.\n");
}

void bm_weak_ba(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  const auto f = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t words = 0;
  for (auto _ : state) {
    const auto res = run_wba(t, f);
    words = res.meter.words_correct;
    benchmark::DoNotOptimize(words);
  }
  state.counters["words"] = static_cast<double>(words);
  state.counters["n"] = n_for_t(t);
}

BENCHMARK(bm_weak_ba)
    ->ArgsProduct({{5, 10, 20}, {0, 2}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading(
      "Table 1 / E2: weak BA, O(n(f+1)) words multi-valued, n = 2t+1");
  mewc::bench::words_vs_f_full_range();
  mewc::bench::words_vs_f_leader_killer();
  mewc::bench::words_vs_n_adaptive();
  mewc::bench::help_cost_vs_spam();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
