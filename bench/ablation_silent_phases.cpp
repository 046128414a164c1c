// Experiment E6 — the silent-phase mechanism (Sections 5.1 and 6.1).
//
// The O(n(f+1)) bound rests on one structural claim: after the first
// non-silent phase led by a correct process, all later correct-leader
// phases are silent, so the number of non-silent phases is O(f+1). This
// ablation counts non-silent phases directly, across adversaries designed
// to burn as many phases as possible.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace mewc::bench {
namespace {

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");

void bb_nonsilent_vs_f() {
  const std::uint32_t t = 15;  // n = 31
  subheading("BB non-silent vetting phases vs f (silent sender + killer)");
  Table tab({"f", "non-silent phases", "bound f+1", "words"});
  for (std::uint32_t f = 1; f <= adaptive_boundary(n_for_t(t), t); f += 2) {
    auto spec = harness::RunSpec::for_t(t);
    std::vector<std::unique_ptr<Adversary>> parts;
    parts.push_back(std::make_unique<adv::CrashAdversary>(
        std::vector<ProcessId>{static_cast<ProcessId>(spec.n - 1)}));
    parts.push_back(
        std::make_unique<adv::AdaptiveLeaderCrash>(4, 3, spec.n, f - 1));
    adv::Composite adversary(std::move(parts));
    const auto res =
        kBb.run(spec, {kBb.prepare(spec.n, Value(1)), spec.n - 1}, adversary);
    tab.row({u64(res.f()), u64(active_windows(res.meter, 2, 3, spec.n)),
             u64(res.f() + 1), u64(res.meter.words_correct)});
  }
  tab.print();
}

void wba_nonsilent_vs_f() {
  const std::uint32_t t = 15;
  subheading("weak BA non-silent phases vs f (mid-phase leader killer)");
  Table tab({"f", "non-silent phases", "bound f+1", "decided in phase",
             "words"});
  for (std::uint32_t f = 0; f <= adaptive_boundary(n_for_t(t), t); f += 2) {
    auto spec = harness::RunSpec::for_t(t);
    // Corrupt each upcoming leader AFTER its propose and the votes (local
    // round 3): the phase is burned at full O(n) cost. Killing before the
    // phase would be free — silent phases cost nothing.
    adv::AdaptiveLeaderCrash adversary(3, 5, spec.n, f);
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adversary);
    std::uint64_t phase = 0;
    for (const auto& s : res.outcomes) {
      if (s && s->decided_phase > phase) phase = s->decided_phase;
    }
    tab.row({u64(res.f()), u64(active_windows(res.meter, 1, 5, spec.n)),
             u64(res.f() + 1), u64(phase), u64(res.meter.words_correct)});
  }
  tab.print();
  std::printf(
      "Shape check: non-silent phases track f+1 exactly under the\n"
      "worst-case (leader-killing) adversary — the mechanism behind\n"
      "adaptivity.\n");
}

void per_phase_cost() {
  subheading("per-phase word cost is O(n) (weak BA, leader killer, n = 31)");
  const std::uint32_t t = 15;
  auto spec = harness::RunSpec::for_t(t);
  const std::uint32_t f = 4;
  adv::AdaptiveLeaderCrash adversary(3, 5, spec.n, f);
  const auto res =
      kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adversary);
  Table tab({"phase", "words", "words/n"});
  for (std::uint64_t j = 1; j <= f + 2; ++j) {
    const Round lo = static_cast<Round>(5 * (j - 1)) + 1;
    const std::uint64_t words = res.meter.words_in_rounds(lo, lo + 5);
    tab.row({u64(j), u64(words),
             fixed2(static_cast<double>(words) / spec.n)});
  }
  tab.print();
}

void early_stopping() {
  subheading(
      "early stopping: rounds to decision vs f (weak BA, n = 31, schedule "
      "length is fixed)");
  const std::uint32_t t = 15;
  Table tab({"f", "decision round (max over processes)", "5(f+1)",
             "total schedule"});
  for (std::uint32_t f = 0; f <= adaptive_boundary(n_for_t(t), t); f += 2) {
    auto spec = harness::RunSpec::for_t(t);
    adv::AdaptiveLeaderCrash adversary(3, 5, spec.n, f);
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adversary);
    Round worst = 0;
    for (const auto& s : res.outcomes) {
      if (s && s->decided_round > worst) worst = s->decided_round;
    }
    tab.row({u64(res.f()), u64(worst), u64(5 * (res.f() + 1)),
             u64(res.rounds)});
  }
  tab.print();
  std::printf(
      "Decisions land at the end of phase f+1 — the time complexity adapts\n"
      "to f exactly like the word complexity (the early-stopping behaviour\n"
      "Section 4 relates this line of work to).\n");
}

void bm_leader_killer(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  const auto f = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto spec = harness::RunSpec::for_t(t);
    adv::AdaptiveLeaderCrash adversary(1, 5, spec.n, f);
    const auto res =
        kWeakBa.run(spec, {kWeakBa.prepare(spec.n, Value(7))}, adversary);
    benchmark::DoNotOptimize(res.meter.words_correct);
  }
}

BENCHMARK(bm_leader_killer)
    ->ArgsProduct({{10, 15}, {0, 2, 4}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading("E6: silent phases — the adaptivity mechanism");
  mewc::bench::bb_nonsilent_vs_f();
  mewc::bench::wba_nonsilent_vs_f();
  mewc::bench::per_phase_cost();
  mewc::bench::early_stopping();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
