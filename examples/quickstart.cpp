// Quickstart: broadcast one value through the adaptive Byzantine Broadcast
// (Algorithms 1 + 2) and inspect the outcome.
//
//   $ ./quickstart
//
// Walks through the full public API surface: trusted setup, protocol run
// via the harness, and the metered communication cost.
#include <cstdio>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"

int main() {
  using namespace mewc;

  // A system of n = 2t + 1 = 7 processes tolerating t = 3 Byzantine ones.
  auto spec = harness::RunSpec::for_t(3);
  std::printf("system: n = %u processes, t = %u tolerated faults\n", spec.n,
              spec.t);

  // Every protocol runs through its registered driver. Process 2
  // broadcasts the value 1234; only the sender's entry of the inputs is
  // read. No process actually misbehaves in this run (try the other
  // examples for Byzantine senders).
  const harness::ProtocolDriver& bb = *harness::find_driver("bb");
  harness::RunInputs inputs;
  inputs.values = bb.prepare(spec.n, Value(1234));
  inputs.sender = 2;
  adv::NullAdversary nobody_misbehaves;
  const harness::RunReport res = bb.run(spec, inputs, nobody_misbehaves);

  // Every correct process decided the sender's value.
  for (ProcessId p = 0; p < spec.n; ++p) {
    if (!res.outcomes[p]) continue;
    std::printf(
        "process %u decided %llu\n", p,
        static_cast<unsigned long long>(res.outcomes[p]->decision.value.raw));
  }

  std::printf("\nagreement: %s, decision = %llu\n",
              res.agreement() ? "yes" : "NO",
              static_cast<unsigned long long>(res.decision().value.raw));
  std::printf("words sent by correct processes: %llu (%.1f per process)\n",
              static_cast<unsigned long long>(res.meter.words_correct),
              static_cast<double>(res.meter.words_correct) / spec.n);
  std::printf("fallback executed: %s (failure-free runs never fall back)\n",
              res.any_fallback() ? "yes" : "no");
  std::printf("rounds: %u\n", res.rounds);
  return res.agreement() ? 0 : 1;
}
