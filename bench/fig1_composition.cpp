// Experiment E5 — Figure 1: the composition of the paper's solutions.
//
// Figure 1 is the diagram "BB(n(f+1)) uses [weak BA(n(f+1)) uses
// [Momose-Ren BA(n^2)]]". This bench runs the composed stack and attributes
// every metered word to its layer, for scenarios that exercise successively
// deeper layers: a correct sender touches only the outer layers; a silent
// sender drives the vetting; a maximal crash drives the run into the
// innermost (fallback) box.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace mewc::bench {
namespace {

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");

/// Sender p0 broadcasts 5 in every scenario.
harness::RunInputs sender0_inputs(std::uint32_t n) {
  return {kBb.prepare(n, Value(5)), /*sender=*/0};
}

struct Layers {
  std::uint64_t dissemination = 0;  // Algorithm 1 round 1
  std::uint64_t vetting = 0;        // Algorithm 2 phases
  std::uint64_t wba_phases = 0;     // Algorithm 4 phases
  std::uint64_t help_window = 0;    // Algorithm 3 help + safety window
  std::uint64_t fallback = 0;       // A_fallback (Momose-Ren box)
};

Layers attribute(const harness::RunReport& res, std::uint32_t n,
                 std::uint32_t t) {
  Layers l;
  const Round wba_first = 3 * n + 2;
  const Round phases_end = wba_first - 1 + 5 * n;
  const Round window_end = phases_end + 4;
  l.dissemination = res.meter.words_in_rounds(1, 2);
  l.vetting = res.meter.words_in_rounds(2, wba_first);
  l.wba_phases = res.meter.words_in_rounds(wba_first, phases_end + 1);
  l.help_window = res.meter.words_in_rounds(phases_end + 1, window_end + 1);
  l.fallback = res.meter.words_in_rounds(window_end + 1, res.rounds + 1);
  (void)t;
  return l;
}

void composition_table() {
  const std::uint32_t t = 10;
  const auto n = n_for_t(t);
  subheading("per-layer word attribution of the composed BB stack (n = 21)");
  Table tab({"scenario", "dissem.", "vetting (Alg 2)", "weak BA (Alg 3/4)",
             "help+window", "fallback (MR box)", "total", "decision"});

  auto row = [&](const char* name, const harness::RunReport& res) {
    const Layers l = attribute(res, n, t);
    tab.row({name, u64(l.dissemination), u64(l.vetting), u64(l.wba_phases),
             u64(l.help_window), u64(l.fallback),
             u64(res.meter.words_correct),
             res.decision().is_bottom() ? "⊥"
                                        : u64(res.decision().value.raw)});
  };

  auto spec = harness::RunSpec::for_t(t);
  {
    adv::NullAdversary a;
    row("correct sender, f=0", kBb.run(spec, sender0_inputs(spec.n), a));
  }
  {
    adv::CrashAdversary a({0});  // sender silent
    row("silent sender, f=1", kBb.run(spec, sender0_inputs(spec.n), a));
  }
  {
    adv::BbEquivocatingSender a(0, spec.instance,
                                adv::SenderMode::kEquivocate, Value(5),
                                Value(6));
    row("equivocating sender", kBb.run(spec, sender0_inputs(spec.n), a));
  }
  {
    adv::CrashAdversary a(first_f(t));  // maximal crash (sender included)
    row("f = t crash", kBb.run(spec, sender0_inputs(spec.n), a));
  }
  tab.print();
  std::printf(
      "Reading the figure: each scenario activates the boxes inside-out —\n"
      "failure-free runs never leave the outer boxes; only f = Θ(t) runs\n"
      "reach the innermost Momose-Ren box, exactly as Figure 1 composes\n"
      "the solutions.\n");
}

void words_by_kind() {
  subheading("where the words go: per-message-kind attribution (n = 21)");
  const std::uint32_t t = 10;
  auto spec = harness::RunSpec::for_t(t);
  Table tab({"scenario", "kind", "words"});
  auto rows_for = [&](const char* scenario, const harness::RunReport& res) {
    for (const auto& [kind, words] : res.meter.words_by_kind()) {
      tab.row({scenario, kind, u64(words)});
    }
  };
  {
    adv::NullAdversary a;
    rows_for("f=0", kBb.run(spec, sender0_inputs(spec.n), a));
  }
  {
    adv::CrashAdversary a({0});
    rows_for("silent sender", kBb.run(spec, sender0_inputs(spec.n), a));
  }
  tab.print();
  std::printf(
      "Failure-free, the whole bill is one dissemination plus one weak-BA\n"
      "phase (propose/vote/commit/decide/finalized); the silent-sender run\n"
      "adds exactly one vetting phase (help_req/idk/leader_value).\n");
}

void primitive_usage() {
  subheading("which primitive decided the run");
  const std::uint32_t t = 5;
  Table tab({"scenario", "decided via", "fallback participants"});
  auto spec = harness::RunSpec::for_t(t);
  {
    adv::NullAdversary a;
    const auto res = kBb.run(spec, sender0_inputs(spec.n), a);
    tab.row({"f=0", "weak BA phase certificate",
             u64(res.any_fallback() ? spec.n : 0)});
  }
  {
    adv::CrashAdversary a(first_f(t));
    const auto res = kBb.run(spec, sender0_inputs(spec.n), a);
    std::uint32_t participants = 0;
    for (const auto& s : res.outcomes) {
      participants += (s && s->fallback_participant) ? 1 : 0;
    }
    tab.row({"f=t", "A_fallback (strong unanimity)", u64(participants)});
  }
  tab.print();
}

void bm_composed_bb(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto spec = harness::RunSpec::for_t(t);
    adv::NullAdversary a;
    const auto res = kBb.run(spec, sender0_inputs(spec.n), a);
    benchmark::DoNotOptimize(res.meter.words_correct);
  }
  state.counters["n"] = n_for_t(t);
}

BENCHMARK(bm_composed_bb)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading("Figure 1 / E5: composition of the solutions");
  mewc::bench::composition_table();
  mewc::bench::words_by_kind();
  mewc::bench::primitive_usage();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
