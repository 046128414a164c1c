// Experiment E3 — Table 1, row "Strong BA: O(n) with f = 0, binary".
//
// Algorithm 5's failure-free fast path is exactly four leader rounds of
// one-to-two-word messages: total words linear in n, zero fallback traffic
// (Lemma 8). Any single failure kills the (n, n)-certificate and the cost
// jumps to the fallback regime.
#include <benchmark/benchmark.h>

#include "ba/fallback/cost_model.hpp"
#include "bench_util.hpp"

namespace mewc::bench {
namespace {

const harness::ProtocolDriver& kStrongBa = *harness::find_driver("strong-ba");

harness::RunReport run_sba(std::uint32_t t, std::uint32_t f) {
  auto spec = harness::RunSpec::for_t(t);
  adv::CrashAdversary adversary(first_f(f) /* may include the leader */);
  return kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, adversary);
}

void words_vs_n_failure_free() {
  subheading("strong BA words vs n (f = 0; paper: O(n), 4 leader rounds)");
  Table tab({"n", "words", "words/n", "all fast", "fallback traffic"});
  for (std::uint32_t t : {5u, 10u, 20u, 40u, 60u, 100u}) {
    const auto n = n_for_t(t);
    adv::NullAdversary adversary;
    auto spec = harness::RunSpec::for_t(t);
    const auto res =
        kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, adversary);
    tab.row({u64(n), u64(res.meter.words_correct),
             fixed2(static_cast<double>(res.meter.words_correct) / n),
             res.all_fast() ? "yes" : "no",
             u64(res.meter.words_in_rounds(5, res.rounds + 1))});
  }
  tab.print();
}

void cost_jump_at_first_failure() {
  subheading("strong BA cost jump at the first failure (n = 21)");
  const std::uint32_t t = 10;
  const auto n = n_for_t(t);
  Table tab({"f", "words", "fallback", "modeled Momose-Ren words"});
  for (std::uint32_t f : {0u, 1u, 2u, 5u, 10u}) {
    const auto res = run_sba(t, f);
    tab.row({u64(f), u64(res.meter.words_correct),
             res.any_fallback() ? "yes" : "no",
             res.any_fallback() ? u64(fallback::modeled_momose_ren_words(n))
                                : std::string("-")});
  }
  tab.print();
  std::printf(
      "Shape check: O(n) at f = 0, then a one-step jump to the fallback\n"
      "regime — the paper's \"linear in the failure-free case, quadratic\n"
      "otherwise\" (our substituted fallback measures cubic; the modeled\n"
      "column is the Momose-Ren quadratic, DESIGN.md SUB-1).\n");
}

void leader_misbehaviour() {
  subheading("strong BA under Byzantine leader strategies (n = 11)");
  const std::uint32_t t = 5;
  Table tab({"strategy", "words", "agreement", "decision"});
  auto run_with = [&](const char* name, Adversary& adversary,
                      std::vector<WireValue> inputs) {
    auto spec = harness::RunSpec::for_t(t);
    const auto res = kStrongBa.run(spec, {std::move(inputs)}, adversary);
    tab.row({name, u64(res.meter.words_correct),
             res.agreement() ? "yes" : "NO", u64(res.decision().value.raw)});
  };
  auto spec = harness::RunSpec::for_t(t);
  {
    adv::Alg5Withhold a(spec.instance, adv::Alg5Mode::kSilent);
    run_with("silent leader", a, kStrongBa.prepare(spec.n, Value(1)));
  }
  {
    adv::Alg5Withhold a(spec.instance, adv::Alg5Mode::kHideDecide, 1);
    run_with("hide decide cert", a, kStrongBa.prepare(spec.n, Value(1)));
  }
  {
    adv::Alg5Withhold a(spec.instance, adv::Alg5Mode::kSplitPropose);
    std::vector<WireValue> mixed;
    for (std::uint32_t i = 0; i < spec.n; ++i) {
      mixed.push_back(WireValue::plain(Value(i % 2)));
    }
    run_with("split propose certs", a, mixed);
  }
  tab.print();
}

void bm_strong_ba(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  const auto f = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t words = 0;
  for (auto _ : state) {
    const auto res = run_sba(t, f);
    words = res.meter.words_correct;
    benchmark::DoNotOptimize(words);
  }
  state.counters["words"] = static_cast<double>(words);
  state.counters["n"] = n_for_t(t);
}

BENCHMARK(bm_strong_ba)
    ->ArgsProduct({{5, 10, 20, 40}, {0}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_strong_ba)
    ->ArgsProduct({{5, 10}, {1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading(
      "Table 1 / E3: strong binary BA, O(n) failure-free, n = 2t+1");
  mewc::bench::words_vs_n_failure_free();
  mewc::bench::cost_jump_at_first_failure();
  mewc::bench::leader_misbehaviour();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
