// Multi-valued strong BA from interactive consistency: agreement, strong
// unanimity over an arbitrary value domain, and the plurality rule.
#include "ba/vector/multivalued_ba.hpp"

#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

/// Local mini-harness (the protocol is an extension, not part of the main
/// harness surface).
struct MvbaResult {
  std::vector<std::optional<Value>> decisions;
  std::vector<ProcessId> corrupted;
  Meter meter;

  [[nodiscard]] bool agreement() const {
    std::optional<Value> seen;
    for (const auto& d : decisions) {
      if (!d) continue;
      if (!seen) {
        seen = *d;
      } else if (*seen != *d) {
        return false;
      }
    }
    return true;
  }
  [[nodiscard]] Value decision() const {
    for (const auto& d : decisions) {
      if (d) return *d;
    }
    return kBottom;
  }
};

MvbaResult run_mvba(const RunSpec& spec, const std::vector<Value>& inputs,
                    Adversary& adversary) {
  ThresholdFamily family(spec.n, spec.t, spec.backend, spec.seed);
  std::vector<KeyBundle> bundles;
  for (ProcessId p = 0; p < spec.n; ++p) {
    bundles.push_back(family.issue_bundle(p));
  }
  std::vector<std::unique_ptr<IProcess>> procs;
  for (ProcessId p = 0; p < spec.n; ++p) {
    ProtocolContext ctx;
    ctx.id = p;
    ctx.n = spec.n;
    ctx.t = spec.t;
    ctx.instance = spec.instance;
    ctx.crypto = &family;
    ctx.keys = &bundles[p];
    procs.push_back(std::make_unique<ic::MultiValuedBaProcess>(ctx, inputs[p]));
  }
  const auto exec = make_executor(ExecutorKind::kLockstep, family,
                                  std::move(bundles), std::move(procs),
                                  adversary);
  exec->run(ic::MultiValuedBaProcess::total_rounds(spec.n, spec.t));

  MvbaResult res;
  res.meter = exec->meter();
  res.corrupted = exec->corrupted();
  for (ProcessId p = 0; p < spec.n; ++p) {
    if (exec->is_corrupted(p)) {
      res.decisions.push_back(std::nullopt);
    } else {
      const auto& proc =
          static_cast<const ic::MultiValuedBaProcess&>(exec->process(p));
      EXPECT_TRUE(proc.stats().decided);
      res.decisions.push_back(proc.decision());
    }
  }
  return res;
}

TEST(MultiValuedBa, UnanimityOverArbitraryDomain) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res =
      run_mvba(spec, std::vector<Value>(spec.n, Value(0xabcdef)), adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision(), Value(0xabcdef));
}

TEST(MultiValuedBa, UnanimitySurvivesMaximalCrash) {
  auto spec = RunSpec::for_t(2);
  adv::CrashAdversary adv({0, 2});
  const auto res = run_mvba(spec, std::vector<Value>(spec.n, Value(500)), adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision(), Value(500));
}

TEST(MultiValuedBa, MixedInputsAgreeOnPlurality) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res =
      run_mvba(spec, {Value(7), Value(8), Value(7), Value(9), Value(7)}, adv);
  EXPECT_TRUE(res.agreement());
  EXPECT_EQ(res.decision(), Value(7));  // plurality 3/5
}

TEST(MultiValuedBa, EquivocatorCannotBreakAgreement) {
  auto spec = RunSpec::for_t(2);
  const std::uint64_t lane1 = hash_combine(spec.instance, 0x1c0ull + 1);
  adv::BbEquivocatingSender adv(1, lane1, adv::SenderMode::kEquivocate,
                                Value(60), Value(61));
  const auto res =
      run_mvba(spec, std::vector<Value>(spec.n, Value(60)), adv);
  EXPECT_TRUE(res.agreement());
  // 4 correct lanes say 60; the equivocator's lane adds at most one more
  // slot of anything: plurality is 60.
  EXPECT_EQ(res.decision(), Value(60));
}

TEST(MultiValuedBa, PluralityRuleIsDeterministic) {
  using P = ic::MultiValuedBaProcess;
  EXPECT_EQ(P::plurality({Value(3), Value(3), Value(5)}), Value(3));
  EXPECT_EQ(P::plurality({Value(5), Value(3)}), Value(3));  // tie: smaller
  EXPECT_EQ(P::plurality({kBottom, kBottom}), kBottom);
  EXPECT_EQ(P::plurality({kBottom, Value(9)}), Value(9));
  EXPECT_EQ(P::plurality({}), kBottom);
}

}  // namespace
}  // namespace mewc
