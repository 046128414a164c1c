// Experiment E8 — the Dolev-Reischuk signature bound vs word complexity.
//
// Dolev-Reischuk (1985): authenticated BB needs Omega(nt) signatures even
// failure-free. The paper's starting point is that this does NOT bound the
// word complexity once threshold schemes compress k signatures into one
// word. This bench measures both quantities side by side at f = 0: logical
// signatures transferred stay Theta(n*t) (resp. Theta(n^2) for the
// baseline), while words collapse to Theta(n).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace mewc::bench {
namespace {

const harness::ProtocolDriver& kBb = *harness::find_driver("bb");
const harness::ProtocolDriver& kStrongBa = *harness::find_driver("strong-ba");
const harness::ProtocolDriver& kDsBb = *harness::find_driver("ds-bb");

void separation_table() {
  subheading("failure-free: logical signatures transferred vs words");
  Table tab({"protocol", "n", "logical sigs", "sigs/(n*t)", "words",
             "words/n"});
  for (std::uint32_t t : {5u, 10u, 20u, 40u}) {
    const auto n = n_for_t(t);
    const double nt = static_cast<double>(n) * t;
    {
      adv::NullAdversary a;
      auto spec = harness::RunSpec::for_t(t);
      const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, a);
      tab.row({"adaptive BB", u64(n), u64(res.meter.logical_sigs_correct),
               fixed2(res.meter.logical_sigs_correct / nt),
               u64(res.meter.words_correct),
               fixed2(static_cast<double>(res.meter.words_correct) / n)});
    }
    {
      adv::NullAdversary a;
      auto spec = harness::RunSpec::for_t(t);
      const auto res =
          kStrongBa.run(spec, {kStrongBa.prepare(spec.n, Value(1))}, a);
      tab.row({"strong BA (Alg 5)", u64(n),
               u64(res.meter.logical_sigs_correct),
               fixed2(res.meter.logical_sigs_correct / nt),
               u64(res.meter.words_correct),
               fixed2(static_cast<double>(res.meter.words_correct) / n)});
    }
    {
      adv::NullAdversary a;
      auto spec = harness::RunSpec::for_t(t);
      const auto res = kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(1)), 0}, a);
      tab.row({"Dolev-Strong BB", u64(n),
               u64(res.meter.logical_sigs_correct),
               fixed2(res.meter.logical_sigs_correct / nt),
               u64(res.meter.words_correct),
               fixed2(static_cast<double>(res.meter.words_correct) / n)});
    }
  }
  tab.print();
  std::printf(
      "Shape check: every protocol moves Theta(nt) logical signatures\n"
      "(Dolev-Reischuk is not violated), but only the threshold-compressed\n"
      "protocols get words/n flat — the separation the paper builds on.\n");
}

void signing_operations() {
  subheading("local signing operations at f = 0 (individual signatures)");
  Table tab({"protocol", "n", "individual signs issued"});
  for (std::uint32_t t : {10u, 20u}) {
    const auto n = n_for_t(t);
    adv::NullAdversary a1, a2;
    auto spec = harness::RunSpec::for_t(t);
    const auto bb = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, a1);
    const auto ds = kDsBb.run(spec, {kDsBb.prepare(spec.n, Value(1)), 0}, a2);
    tab.row({"adaptive BB", u64(n), u64(bb.signatures_issued)});
    tab.row({"Dolev-Strong BB", u64(n), u64(ds.signatures_issued)});
  }
  tab.print();
}

void bm_signature_accounting(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    adv::NullAdversary a;
    auto spec = harness::RunSpec::for_t(t);
    const auto res = kBb.run(spec, {kBb.prepare(spec.n, Value(1)), 0}, a);
    benchmark::DoNotOptimize(res.meter.logical_sigs_correct);
  }
}

BENCHMARK(bm_signature_accounting)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading(
      "E8: Dolev-Reischuk Omega(nt) signatures vs O(n) words (f = 0)");
  mewc::bench::separation_table();
  mewc::bench::signing_operations();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
