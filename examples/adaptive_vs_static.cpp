// Adaptive vs static: the paper's thesis in one table. Runs the adaptive BB
// and the classic (non-adaptive) Dolev-Strong BB over the same crash
// workloads and prints who pays what as the actual failure count varies —
// "make every word count" means paying for f, not for t.
#include <cstdio>
#include <vector>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"

int main() {
  using namespace mewc;

  constexpr std::uint32_t kT = 10;  // n = 21
  auto spec = harness::RunSpec::for_t(kT);
  const harness::ProtocolDriver& bb = *harness::find_driver("bb");
  const harness::ProtocolDriver& ds_bb = *harness::find_driver("ds-bb");
  const harness::RunInputs inputs{bb.prepare(spec.n, Value(9)),
                                  /*sender=*/spec.n - 1};

  std::printf("adaptive BB (paper) vs Dolev-Strong BB (classic), n = %u\n\n",
              spec.n);
  std::printf("%4s | %14s | %16s | %7s\n", "f", "adaptive words",
              "Dolev-Strong wds", "factor");
  std::printf("-----+----------------+------------------+--------\n");

  bool all_valid = true;
  for (std::uint32_t f = 0; f <= spec.n - commit_quorum(spec.n, spec.t);
       ++f) {
    std::vector<ProcessId> victims;
    for (std::uint32_t i = 0; i < f; ++i) victims.push_back(i);

    adv::CrashAdversary a1(victims), a2(victims);
    const auto adaptive = bb.run(spec, inputs, a1);
    const auto classic = ds_bb.run(spec, inputs, a2);

    all_valid &= adaptive.agreement() && adaptive.decision().value == Value(9);
    all_valid &= classic.agreement() && classic.decision().value == Value(9);

    std::printf("%4u | %14llu | %16llu | %6.1fx\n", f,
                static_cast<unsigned long long>(adaptive.meter.words_correct),
                static_cast<unsigned long long>(classic.meter.words_correct),
                static_cast<double>(classic.meter.words_correct) /
                    static_cast<double>(adaptive.meter.words_correct));
  }

  std::printf(
      "\nThe classic protocol pays its worst case in every run; the\n"
      "adaptive protocol's bill grows with the failures that actually\n"
      "happened (O(n(f+1))), which is what the paper's title promises.\n");
  std::printf("all runs decided the sender's value: %s\n",
              all_valid ? "yes" : "NO");
  return all_valid ? 0 : 1;
}
