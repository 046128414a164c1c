// Experiment E1 — Table 1, row "Byzantine Broadcast: O(n(f+1))".
//
// Regenerates the row empirically: metered words of the adaptive BB
// (Algorithms 1 + 2) as a function of f at fixed n, and of n at fixed f,
// against the classic Dolev-Strong BB baseline. The reported constant
// words/(n*(f+1)) flat across the sweep is the paper's claim.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/stats.hpp"

namespace mewc::bench {
namespace {

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kDsBb = *harness::find_driver("ds-bb");

harness::RunReport run_adaptive(std::uint32_t t, std::uint32_t f,
                               bool leader_killer) {
  auto spec = harness::RunSpec::for_t(t);
  const ProcessId sender = spec.n - 1;  // keep early vetting leaders correct
  if (leader_killer) {
    // Corrupt each upcoming vetting leader right before its relay round:
    // the costliest adaptive pattern (every burned phase is non-silent).
    std::vector<std::unique_ptr<Adversary>> parts;
    parts.push_back(std::make_unique<adv::CrashAdversary>(
        std::vector<ProcessId>{sender}));
    parts.push_back(
        std::make_unique<adv::AdaptiveLeaderCrash>(4, 3, spec.n, f - 1));
    adv::Composite adversary(std::move(parts));
    return kBb.run(spec, {kBb.prepare(spec.n, Value(1)), sender}, adversary);
  }
  adv::CrashAdversary adversary(first_f(f));
  return kBb.run(spec, {kBb.prepare(spec.n, Value(1)), sender}, adversary);
}

void words_vs_f() {
  const std::uint32_t t = 20;  // n = 41
  const auto n = n_for_t(t);
  subheading("BB words vs f (n = 41, crash adversary; paper: O(n(f+1)))");
  Table tab({"f", "words", "words/(n(f+1))", "non-silent phases", "fallback"});
  for (std::uint32_t f = 0; f <= adaptive_boundary(n, t); f += 2) {
    const auto res = run_adaptive(t, f, false);
    tab.row({u64(f), u64(res.meter.words_correct),
             fixed2(static_cast<double>(res.meter.words_correct) /
                    (static_cast<double>(n) * (f + 1))),
             u64(active_windows(res.meter, 2, 3, n)),
             res.any_fallback() ? "yes" : "no"});
  }
  tab.print();
  std::printf(
      "Crash failures are nearly free for BB (a crashed process simply\n"
      "stays quiet; everyone already holds the sender's value): words stay\n"
      "O(n). The O(n(f+1)) worst case needs the leader-killer below.\n");
}

void words_vs_f_leader_killer() {
  const std::uint32_t t = 20;
  const auto n = n_for_t(t);
  subheading("BB words vs f (n = 41, adaptive leader-killer + silent sender)");
  Table tab({"f", "words", "words/(n(f+1))", "non-silent phases"});
  for (std::uint32_t f = 1; f <= adaptive_boundary(n, t); f += 2) {
    const auto res = run_adaptive(t, f, true);
    tab.row({u64(res.f()), u64(res.meter.words_correct),
             fixed2(static_cast<double>(res.meter.words_correct) /
                    (static_cast<double>(n) * (res.f() + 1))),
             u64(active_windows(res.meter, 2, 3, n))});
  }
  tab.print();
  std::printf(
      "Words grow linearly in f — each killed leader burns one O(n) phase\n"
      "— and words/(n(f+1)) settles to a constant: the Table 1 row.\n");
}

void words_vs_n() {
  subheading("BB words vs n (f = 0): adaptive vs Dolev-Strong baseline");
  Table tab({"n", "adaptive words", "adaptive/n", "Dolev-Strong words",
             "DS/n^2", "speedup"});
  std::vector<double> ns, adaptive_words, classic_words;
  for (std::uint32_t t : {5u, 10u, 20u, 40u, 60u}) {
    const auto n = n_for_t(t);
    adv::NullAdversary a1, a2;
    auto spec = harness::RunSpec::for_t(t);
    const auto adaptive = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, a1);
    const auto classic =
        kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(1)), 0}, a2);
    ns.push_back(n);
    adaptive_words.push_back(static_cast<double>(adaptive.meter.words_correct));
    classic_words.push_back(static_cast<double>(classic.meter.words_correct));
    tab.row({u64(n), u64(adaptive.meter.words_correct),
             fixed2(static_cast<double>(adaptive.meter.words_correct) / n),
             u64(classic.meter.words_correct),
             fixed2(static_cast<double>(classic.meter.words_correct) /
                    (static_cast<double>(n) * n)),
             fixed2(static_cast<double>(classic.meter.words_correct) /
                    static_cast<double>(adaptive.meter.words_correct))});
  }
  tab.print();
  const auto fa = stats::fit_power_law(ns, adaptive_words);
  const auto fc = stats::fit_power_law(ns, classic_words);
  std::printf(
      "Fitted growth orders: adaptive BB words ~ n^%.2f (r2=%.4f), "
      "Dolev-Strong ~ n^%.2f (r2=%.4f).\n",
      fa.slope, fa.r2, fc.slope, fc.r2);
}

void bm_bb(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  const auto f = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t words = 0;
  for (auto _ : state) {
    const auto res = run_adaptive(t, f, false);
    words = res.meter.words_correct;
    benchmark::DoNotOptimize(words);
  }
  state.counters["words"] = static_cast<double>(words);
  state.counters["n"] = n_for_t(t);
  state.counters["f"] = f;
}

BENCHMARK(bm_bb)
    ->ArgsProduct({{5, 10, 20}, {0, 2, 4}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading(
      "Table 1 / E1: Byzantine Broadcast, O(n(f+1)) words, n = 2t+1");
  mewc::bench::words_vs_f();
  mewc::bench::words_vs_f_leader_killer();
  mewc::bench::words_vs_n();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
