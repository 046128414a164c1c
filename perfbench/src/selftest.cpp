// Self-test of the bench client's slot-budget stop rule (stop_rule.hpp).
// run.py runs it before every workload; the Python arithmetic has its own
// self-test in test_stats.py.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "stop_rule.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                       \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "selftest:%d: failed: %s\n", __LINE__, #cond); \
      ++failures;                                                          \
    }                                                                      \
  } while (0)

constexpr std::int64_t kSec = 1'000'000'000;

void boundary() {
  using perfbench::can_issue;
  // est + (pending + 1) * n + guard <= budget
  EXPECT(can_issue(100.0, 3, 4, 124, 8));
  EXPECT(!can_issue(100.0, 3, 4, 123, 8));
  EXPECT(!can_issue(100.5, 3, 4, 124, 8));
  EXPECT(can_issue(0.0, 0, 4, 12, 8));
}

void clock() {
  perfbench::SlotClock c(10 * kSec, 24.0);
  // Before any ack: nominal rate from the client's start.
  EXPECT(c.estimate(10 * kSec) == 0.0);
  EXPECT(c.estimate(12 * kSec) == 48.0);
  // Acks spanning less than a second keep the nominal rate.
  c.observe(5, 11 * kSec);
  c.observe(10, 11 * kSec + kSec / 2);
  EXPECT(c.rate() == 24.0);
  EXPECT(c.estimate(12 * kSec) == 10.0 + 0.5 * 24.0);
  // Over a second, the observed rate: 45 slots in 1.5 s.
  c.observe(50, 12 * kSec + kSec / 2);
  EXPECT(c.rate() == 30.0);
  EXPECT(c.estimate(13 * kSec) == 50.0 + 0.5 * 30.0);
  // A late ack for an older slot never moves the estimate back.
  c.observe(40, 13 * kSec);
  EXPECT(c.estimate(13 * kSec) == 50.0 + 0.5 * 30.0);
}

/// A synthetic open-loop run: a cluster at `slot_rate` with a slot budget,
/// ops due at `op_rate` round-robin over n nodes, each op served at its
/// node's next free proposing turn and acked when that slot ends. The rule
/// must never issue an op served past the budget, and must keep issuing
/// until the last few proposing turns.
void synthetic_run(double slot_rate, double op_rate) {
  constexpr std::uint32_t kN = 4;
  constexpr std::uint64_t kBudget = 400;
  constexpr std::uint64_t kGuard = 8;
  perfbench::SlotClock clock(0, 24.0);
  struct Pending {
    std::uint64_t slot;
    std::int64_t ack_ns;
    std::uint32_t node;
  };
  std::vector<Pending> in_flight;
  std::uint64_t pending[kN] = {};
  std::uint64_t next_free[kN] = {};  // next slot each node can serve
  std::uint64_t last_served = 0;
  bool refused = false;
  for (std::uint64_t i = 0; i < 100000 && !refused; ++i) {
    const auto due = static_cast<std::int64_t>(static_cast<double>(i) *
                                               1e9 / op_rate);
    // Deliver every ack that arrived before this op is due.
    std::sort(in_flight.begin(), in_flight.end(),
              [](const Pending& a, const Pending& b) {
                return a.ack_ns < b.ack_ns;
              });
    while (!in_flight.empty() && in_flight.front().ack_ns <= due) {
      clock.observe(in_flight.front().slot, in_flight.front().ack_ns);
      --pending[in_flight.front().node];
      in_flight.erase(in_flight.begin());
    }
    const auto node = static_cast<std::uint32_t>(i % kN);
    if (!perfbench::can_issue(clock.estimate(due), pending[node], kN, kBudget,
                              kGuard)) {
      refused = true;
      break;
    }
    // Served at the node's first proposing turn not before the current slot.
    auto slot = static_cast<std::uint64_t>(static_cast<double>(due) * 1e-9 *
                                           slot_rate);
    slot = std::max(slot, next_free[node]);
    slot += (kN + node - slot % kN) % kN;
    next_free[node] = slot + kN;
    EXPECT(slot < kBudget);
    last_served = std::max(last_served, slot);
    ++pending[node];
    in_flight.push_back(
        {slot, static_cast<std::int64_t>((slot + 1) / slot_rate * 1e9), node});
  }
  EXPECT(refused);
  EXPECT(last_served + 3 * kN + kGuard >= kBudget);
}

}  // namespace

int main() {
  boundary();
  clock();
  synthetic_run(24.0, 16.0);  // the node-open shape
  synthetic_run(36.0, 16.0);  // a cluster faster than the nominal rate
  synthetic_run(18.0, 16.0);  // a slower one
  if (failures == 0) std::printf("selftest: stop rule ok\n");
  return failures == 0 ? 0 : 1;
}
