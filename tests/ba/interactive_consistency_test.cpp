// Interactive consistency over n parallel BB lanes: vector agreement,
// per-slot validity for correct senders, Byzantine/crashed slots, lane
// isolation (no cross-lane signature replay), and wire-codec transport.
#include "ba/vector/interactive_consistency.hpp"

#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"
#include "ba/adversaries/fuzzer.hpp"
#include "ba/harness.hpp"

namespace mewc {
namespace {

using harness::RunSpec;

const harness::ProtocolDriver& kIc = *harness::find_driver("ic");

std::vector<WireValue> indexed(std::uint32_t n) {
  std::vector<WireValue> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(WireValue::plain(Value(100 + i)));
  }
  return out;
}

TEST(InteractiveConsistency, FailureFreeFullVector) {
  auto spec = RunSpec::for_t(2);
  adv::NullAdversary adv;
  const auto res = kIc.run(spec, {indexed(spec.n)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  const auto vec = res.vector();
  ASSERT_EQ(vec.size(), spec.n);
  for (ProcessId i = 0; i < spec.n; ++i) {
    EXPECT_EQ(vec[i], Value(100 + i)) << "slot " << i;
  }
}

TEST(InteractiveConsistency, CrashedProcessesYieldBottomSlots) {
  auto spec = RunSpec::for_t(2);
  adv::CrashAdversary adv({1, 3});
  const auto res = kIc.run(spec, {indexed(spec.n)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  const auto vec = res.vector();
  EXPECT_TRUE(vec[1].is_bottom());
  EXPECT_TRUE(vec[3].is_bottom());
  // Correct slots keep BB validity.
  EXPECT_EQ(vec[0], Value(100));
  EXPECT_EQ(vec[2], Value(102));
  EXPECT_EQ(vec[4], Value(104));
}

TEST(InteractiveConsistency, EquivocatorSlotIsCommonAcrossReplicas) {
  auto spec = RunSpec::for_t(2);
  // The equivocator signs different values in its own lane. Lane instances
  // are hashed, so compute lane 2's instance the way the module does.
  const std::uint64_t lane_instance = hash_combine(spec.instance, 0x1c0ull + 2);
  adv::BbEquivocatingSender adv(2, lane_instance,
                                adv::SenderMode::kEquivocate, Value(70),
                                Value(71));
  const auto res = kIc.run(spec, {indexed(spec.n)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  const auto vec = res.vector();
  EXPECT_TRUE(vec[2] == Value(70) || vec[2] == Value(71) ||
              vec[2].is_bottom());
  // Other slots unaffected (lane isolation).
  EXPECT_EQ(vec[0], Value(100));
  EXPECT_EQ(vec[4], Value(104));
}

TEST(InteractiveConsistency, SurvivesFuzzing) {
  auto spec = RunSpec::for_t(2);
  adv::Fuzzer adv(spec.instance, 77, 1, 3);
  const auto res = kIc.run(spec, {indexed(spec.n)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  // Correct lanes must still deliver their senders' values (fuzzer
  // corrupted exactly one process; its own slot is unconstrained).
  const auto vec = res.vector();
  for (ProcessId i = 0; i < spec.n; ++i) {
    if (res.is_corrupted(i)) continue;
    EXPECT_EQ(vec[i], Value(100 + i)) << "slot " << i;
  }
}

TEST(InteractiveConsistency, OverTheWireCodec) {
  auto spec = RunSpec::for_t(2);
  spec.codec_roundtrip = true;
  adv::CrashAdversary adv({0});
  const auto res = kIc.run(spec, {indexed(spec.n)}, adv);
  EXPECT_TRUE(res.all_decided());
  EXPECT_TRUE(res.agreement());
  EXPECT_TRUE(res.vector()[0].is_bottom());
  EXPECT_EQ(res.vector()[1], Value(101));
}

TEST(InteractiveConsistency, CostIsQuadraticFailureFree) {
  // n lanes each O(n): total Θ(n^2) failure-free.
  std::vector<double> ns, words;
  for (std::uint32_t t : {2u, 4u, 8u}) {
    auto spec = RunSpec::for_t(t);
    adv::NullAdversary adv;
    const auto res = kIc.run(spec, {indexed(spec.n)}, adv);
    EXPECT_TRUE(res.agreement());
    ns.push_back(spec.n);
    words.push_back(static_cast<double>(res.meter.words_correct));
  }
  // Doubling n roughly quadruples the cost.
  const double ratio = words[2] / words[1];
  const double n_ratio = ns[2] / ns[1];
  EXPECT_NEAR(ratio, n_ratio * n_ratio, 1.2);
}

TEST(InteractiveConsistency, MuxRejectsMalformedLanes) {
  // Direct check of the demux guard: a mux with an out-of-range lane or a
  // null inner payload must be dropped, not crash.
  ThresholdFamily family(5, 2);
  std::vector<KeyBundle> bundles;
  for (ProcessId p = 0; p < 5; ++p) bundles.push_back(family.issue_bundle(p));
  ProtocolContext ctx;
  ctx.id = 1;
  ctx.n = 5;
  ctx.t = 2;
  ctx.instance = 3;
  ctx.crypto = &family;
  ctx.keys = &bundles[1];
  ic::InteractiveConsistencyProcess proc(ctx, Value(1));

  Outbox out(5);
  proc.on_send(1, out);
  auto bad = std::make_shared<ic::MuxMsg>();
  bad->lane = 99;
  bad->inner = std::make_shared<ic::MuxMsg>();
  Message m;
  m.from = 2;
  m.to = 1;
  m.round = 1;
  m.words = 1;
  m.body = bad;
  std::vector<Message> inbox = {m};
  proc.on_receive(1, inbox);  // must not crash
  SUCCEED();
}

}  // namespace
}  // namespace mewc
