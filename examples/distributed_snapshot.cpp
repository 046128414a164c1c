// Distributed snapshot via interactive consistency: every node proposes
// its local reading (say, a sensor value or an account balance), and the
// system agrees on ONE consistent vector of all readings — Byzantine nodes
// cannot make two auditors see different snapshots, and crashed nodes show
// up as agreed-upon gaps rather than divergent guesses.
//
// Built from n parallel adaptive-BB lanes (src/ba/vector): the paper's BB
// doing component duty, with the adaptive cost profile carrying over —
// a failure-free snapshot costs Θ(n) per lane.
#include <cstdio>
#include <string>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"

int main() {
  using namespace mewc;

  auto spec = harness::RunSpec::for_t(2);  // 5 nodes
  std::printf("distributed snapshot: n = %u nodes, tolerating t = %u\n\n",
              spec.n, spec.t);

  // Local readings; node 3 is down.
  harness::RunInputs readings;
  for (const std::uint64_t reading :
       {210, 195, 230, 999 /*never heard*/, 204}) {
    readings.values.push_back(WireValue::plain(Value(reading)));
  }
  adv::CrashAdversary node3_down({3});

  const harness::RunReport res =
      harness::find_driver("ic")->run(spec, readings, node3_down);

  std::printf("agreement on the snapshot vector: %s\n",
              res.agreement() ? "yes" : "NO");
  const auto snapshot = res.vector();
  std::printf("\nsnapshot:\n");
  for (ProcessId node = 0; node < spec.n; ++node) {
    if (snapshot[node].is_bottom()) {
      std::printf("  node %u: <no reading — agreed unreachable>\n", node);
    } else {
      std::printf("  node %u: %llu\n", node,
                  static_cast<unsigned long long>(snapshot[node].raw));
    }
  }

  std::uint64_t sum = 0;
  std::uint32_t present = 0;
  for (const Value& v : snapshot) {
    if (!v.is_bottom()) {
      sum += v.raw;
      ++present;
    }
  }
  std::printf("\naggregate over the agreed snapshot: mean = %.1f over %u "
              "readings\n",
              static_cast<double>(sum) / present, present);
  std::printf("cost: %llu words total (%.1f per node)\n",
              static_cast<unsigned long long>(res.meter.words_correct),
              static_cast<double>(res.meter.words_correct) / spec.n);
  std::printf("\nEvery auditor that asks any correct node gets THIS vector —\n"
              "including the agreement that node 3 was down.\n");
  return res.agreement() ? 0 : 1;
}
