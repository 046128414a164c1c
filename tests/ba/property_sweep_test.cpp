// Randomized property sweeps, expressed as campaign grids over the check::
// engine: protocols x adversaries x (n, t, f) x seeds, including general
// resilience n > 2t+1. Every cell runs the full default checker stack
// (agreement, validity, termination, the Table 1 word budget, certificate
// well-formedness), so these sweeps assert strictly more than the
// hand-rolled loops they replace. The one property the engine cannot
// express — unique validity under an unforgeable input predicate — keeps
// its hand-rolled test at the bottom.
#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"
#include "check/campaign.hpp"
#include "common/rng.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kWeakBa = *harness::find_driver("weak-ba");

std::string failure_label(const check::CampaignReport& report) {
  const auto* f = report.first_failure();
  if (f == nullptr) return {};
  std::string out = f->cell.label();
  for (const auto& v : f->violations) {
    out += "\n  [" + v.checker + "] " + v.detail;
  }
  return out;
}

void expect_all_pass(const check::GridSpec& grid) {
  const auto report = check::run_campaign(grid);
  ASSERT_GT(report.cells_total, 0u);
  EXPECT_EQ(report.cells_passed, report.cells_total) << failure_label(report);
}

// ---------------------------------------------------------------------------
// Crash sweeps: every protocol, minimal and general resilience, f = 0..t.
// Unique validity, BB sender validity and the adaptive-regime word budget
// are all enforced by the default checkers.
// ---------------------------------------------------------------------------

TEST(PropertySweep, CrashAcrossAllProtocols) {
  check::GridSpec grid;
  grid.protocols = check::all_protocols();
  grid.sizes = {{0, 1}, {0, 2}, {0, 3}, {0, 4}};
  grid.fs = {0, 1, 2, 3, 4};  // enumerate() drops f > t per size
  grid.adversaries = {"crash"};
  grid.seeds = {11, 23};
  expect_all_pass(grid);
}

TEST(PropertySweep, GeneralResilienceWideSystems) {
  // n strictly above 2t+1: the regime where the adaptive envelope does the
  // most work (n - f >= commit_quorum holds for larger f).
  check::GridSpec grid;
  grid.protocols = {check::Protocol::kBb, check::Protocol::kWeakBa,
                    check::Protocol::kStrongBa};
  grid.sizes = {{9, 2}, {11, 3}, {13, 3}};
  grid.fs = {0, 1, 2, 3};
  grid.adversaries = {"crash", "crash-late"};
  grid.seeds = {11, 23};
  expect_all_pass(grid);
}

// ---------------------------------------------------------------------------
// Byzantine sender sweeps: equivocation and partial sends against BB.
// ---------------------------------------------------------------------------

TEST(PropertySweep, ByzantineSenderFamilies) {
  check::GridSpec grid;
  grid.protocols = {check::Protocol::kBb, check::Protocol::kDsBb};
  grid.sizes = {{0, 1}, {0, 2}, {0, 4}, {9, 2}};
  grid.fs = {1, 2};
  grid.adversaries = {"equivocate", "partial-sender", "silent-sender"};
  grid.seeds = {13, 29, 31};
  expect_all_pass(grid);
}

// ---------------------------------------------------------------------------
// Adaptive mid-run corruption: random processes crash at random rounds
// (the Section 2 adaptive adversary in its rawest form), plus the
// phase-leader killer and help-round spam.
// ---------------------------------------------------------------------------

TEST(PropertySweep, AdaptiveMidRunCorruption) {
  check::GridSpec grid;
  grid.protocols = {check::Protocol::kBb, check::Protocol::kWeakBa,
                    check::Protocol::kStrongBa};
  grid.sizes = {{0, 1}, {0, 2}, {0, 4}, {11, 2}};
  grid.fs = {0, 1, 2, 4};
  grid.adversaries = {"random-adaptive", "killer", "help-spam"};
  grid.seeds = {313, 131, 717};
  expect_all_pass(grid);
}

// ---------------------------------------------------------------------------
// Shamir backend: the real threshold math must carry the protocols end to
// end — certificate observations are verified against live Shamir schemes.
// ---------------------------------------------------------------------------

TEST(PropertySweep, ShamirBackendCarriesProtocols) {
  check::GridSpec grid;
  grid.protocols = check::all_protocols();
  grid.sizes = {{0, 1}, {0, 2}, {0, 3}};  // keep Shamir runs small
  grid.fs = {0, 1, 2};
  grid.adversaries = {"crash"};
  grid.seeds = {5};
  grid.backends = {ThresholdBackend::kShamir};
  expect_all_pass(grid);
}

// ---------------------------------------------------------------------------
// Unique validity under an unforgeable predicate. This one stays
// hand-rolled: it mints a (t+1)-attested input certificate out of band and
// installs a restrictive predicate, which a declarative grid cell cannot
// express.
// ---------------------------------------------------------------------------

struct SweepParam {
  std::uint32_t t;
  std::uint32_t f;
  std::uint64_t seed;
};

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return "t" + std::to_string(info.param.t) + "_f" +
         std::to_string(info.param.f) + "_s" +
         std::to_string(info.param.seed);
}

std::vector<SweepParam> grid() {
  std::vector<SweepParam> out;
  for (std::uint32_t t : {1u, 2u, 3u, 4u}) {
    for (std::uint32_t f = 0; f <= t; ++f) {
      for (std::uint64_t seed : {11u, 23u}) {
        out.push_back({t, f, seed});
      }
    }
  }
  return out;
}

/// Random crash set of size f (never including `spare` when it matters).
std::vector<ProcessId> random_victims(Rng& rng, std::uint32_t n,
                                      std::uint32_t f,
                                      std::optional<ProcessId> spare = {}) {
  std::vector<ProcessId> all;
  for (ProcessId p = 0; p < n; ++p) {
    if (!spare || p != *spare) all.push_back(p);
  }
  std::vector<ProcessId> out;
  for (std::uint32_t i = 0; i < f && !all.empty(); ++i) {
    const std::size_t idx = rng.below(all.size());
    out.push_back(all[idx]);
    all.erase(all.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  return out;
}

class WeakBaSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(WeakBaSweep, UnanimityImpliesNoBottomWithUnforgeablePredicate) {
  const auto [t, f, seed] = GetParam();
  auto spec = RunSpec::for_t(t);
  spec.seed = seed;
  Rng rng(seed * 77 + t + f);

  // All correct processes propose the same attested value; the adversary
  // cannot attest anything else, so unique validity forbids ⊥.
  ThresholdFamily mint(spec.n, spec.t, spec.backend, spec.seed);
  std::vector<PartialSig> ps;
  for (ProcessId p = 0; p < spec.t + 1; ++p) {
    ps.push_back(mint.scheme(spec.t + 1).issue_share(p).partial_sign(
        input_attestation_digest(spec.instance, Value(6))));
  }
  auto qc = mint.scheme(spec.t + 1).combine(ps);
  ASSERT_TRUE(qc.has_value());
  const WireValue attested = WireValue::certified(Value(6), *qc);

  harness::PredicateFactory factory = [](const ThresholdFamily& fam,
                                         std::uint64_t instance) {
    return std::make_shared<const InputCertified>(fam, instance);
  };
  adv::CrashAdversary adv(random_victims(rng, spec.n, f));
  harness::RunInputs inputs;
  inputs.values.assign(spec.n, attested);
  inputs.predicate = factory;
  const auto res = kWeakBa.run(spec, inputs, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision().value, Value(6));
}

INSTANTIATE_TEST_SUITE_P(Grid, WeakBaSweep, ::testing::ValuesIn(grid()),
                         sweep_name);

}  // namespace
}  // namespace mewc
