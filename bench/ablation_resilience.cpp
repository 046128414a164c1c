// Experiment E9 (extension) — resilience ablation (paper Section 8).
//
// The paper closes by observing that BB and weak BA carry over to any
// resilience n = αt+β (α > 1, β > 0): the ceil((n+t+1)/2) quorum keeps its
// intersection property, and a wider gap n − 2t widens the adaptive regime
// f <= n − ceil((n+t+1)/2). At n = 3t+1 the protocols are adaptive for
// every f <= t — connecting this paper to Spiegelman's (DISC 2021)
// n = 3t+1 setting. This bench sweeps the resilience gap and reports the
// adaptive boundary and the realized cost at f = t.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace mewc::bench {
namespace {

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");

void boundary_vs_gap() {
  subheading("adaptive boundary vs resilience gap (t = 6)");
  const std::uint32_t t = 6;
  Table tab({"n", "n as", "quorum", "adaptive while f <=",
             "covers f = t?"});
  for (std::uint32_t n : {2 * t + 1, 2 * t + 3, 5 * t / 2 + 1, 3 * t + 1,
                          4 * t + 1}) {
    const std::uint32_t q = commit_quorum(n, t);
    const std::uint32_t boundary = n - q;
    std::string shape = "~" + fixed2(static_cast<double>(n) / t) + "t";
    tab.row({u64(n), shape, u64(q), u64(boundary),
             boundary >= t ? "yes" : "no"});
  }
  tab.print();
}

void cost_at_max_f_vs_gap() {
  subheading("weak BA cost at f = t crash, across resilience (t = 4)");
  const std::uint32_t t = 4;
  Table tab({"n", "words", "fallback", "help reqs"});
  for (std::uint32_t n : {2 * t + 1, 2 * t + 3, 3 * t + 1, 4 * t + 1}) {
    auto spec = harness::RunSpec::with(n, t);
    adv::CrashAdversary adversary(first_f(t));
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adversary);
    tab.row({u64(n), u64(res.meter.words_correct),
             res.any_fallback() ? "yes" : "no", u64(res.help_reqs())});
  }
  tab.print();
  std::printf(
      "Shape check: as the gap n-2t grows, the same worst-case failure\n"
      "count flips from the fallback regime to the cheap adaptive path —\n"
      "Section 8's remark, measured.\n");
}

void bb_validity_across_resilience() {
  subheading("BB across resilience, correct sender, f = t crash (t = 3)");
  const std::uint32_t t = 3;
  Table tab({"n", "decision == v_sender", "words"});
  for (std::uint32_t n : {2 * t + 1, 3 * t + 1, 5 * t + 1}) {
    auto spec = harness::RunSpec::with(n, t);
    adv::CrashAdversary adversary(first_f(t));
    const auto res =
        kBb.run(spec, {kBb.prepare(spec.n, Value(6)), n - 1}, adversary);
    tab.row({u64(n), res.decision().value == Value(6) ? "yes" : "NO",
             u64(res.meter.words_correct)});
  }
  tab.print();
}

void bm_resilience(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto t = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto spec = harness::RunSpec::with(n, t);
    adv::CrashAdversary adversary(first_f(t));
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adversary);
    benchmark::DoNotOptimize(res.meter.words_correct);
  }
}

BENCHMARK(bm_resilience)
    ->Args({9, 4})
    ->Args({13, 4})
    ->Args({17, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading(
      "E9 (extension): resilience ablation, n = αt+β (Section 8)");
  mewc::bench::boundary_vs_gap();
  mewc::bench::cost_at_max_f_vs_gap();
  mewc::bench::bb_validity_across_resilience();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
