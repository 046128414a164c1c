#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include "ba/adversaries/adversaries.hpp"

namespace mewc {
namespace {

struct PingPayload final : Payload {
  Round sent_in;
  explicit PingPayload(Round r) : sent_in(r) {}
  [[nodiscard]] std::size_t words() const override { return 1; }
  [[nodiscard]] const char* kind() const override { return "ping"; }
};

/// Broadcasts one ping per round and records what it receives.
class PingProcess final : public IProcess {
 public:
  void on_send(Round r, Outbox& out) override {
    out.broadcast(std::make_shared<PingPayload>(r));
    sends.push_back(r);
  }
  void on_receive(Round r, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      const auto* p = payload_cast<PingPayload>(m.body);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p->sent_in, r);  // synchrony: delivery within the round
      received_from.push_back(m.from);
    }
    rounds.push_back(r);
  }

  std::vector<Round> sends;
  std::vector<Round> rounds;
  std::vector<ProcessId> received_from;
};

struct Fixture {
  explicit Fixture(std::uint32_t t) : family(n_for_t(t), t) {}

  std::unique_ptr<IExecutor> make(Adversary& adv, ExecutorHooks hooks = {}) {
    const std::uint32_t n = family.n();
    std::vector<KeyBundle> bundles;
    std::vector<std::unique_ptr<IProcess>> procs;
    for (ProcessId p = 0; p < n; ++p) {
      bundles.push_back(family.issue_bundle(p));
      auto proc = std::make_unique<PingProcess>();
      raw.push_back(proc.get());
      procs.push_back(std::move(proc));
    }
    return make_executor(ExecutorKind::kLockstep, family, std::move(bundles),
                         std::move(procs), adv, std::move(hooks));
  }

  ThresholdFamily family;
  std::vector<PingProcess*> raw;
};

TEST(Executor, RunsFullSchedule) {
  Fixture fx(1);
  adv::NullAdversary adv;
  const auto exec = fx.make(adv);
  exec->run(5);
  for (auto* p : fx.raw) {
    EXPECT_EQ(p->rounds, (std::vector<Round>{1, 2, 3, 4, 5}));
    EXPECT_EQ(p->sends.size(), 5u);
  }
}

TEST(Executor, MetersBroadcastTraffic) {
  Fixture fx(1);  // n = 3
  adv::NullAdversary adv;
  const auto exec = fx.make(adv);
  exec->run(2);
  // 3 processes x 2 rounds x 2 link-crossing copies, 1 word each.
  EXPECT_EQ(exec->meter().words_correct, 12u);
}

TEST(Executor, SetupCorruptionSilencesVictims) {
  Fixture fx(2);  // n = 5
  adv::CrashAdversary adv({0, 3});
  const auto exec = fx.make(adv);
  exec->run(3);
  EXPECT_TRUE(exec->is_corrupted(0));
  EXPECT_TRUE(exec->is_corrupted(3));
  EXPECT_EQ(exec->corrupted_count(), 2u);
  EXPECT_EQ(exec->corrupted(), (std::vector<ProcessId>{0, 3}));
  // Victims never ran.
  EXPECT_TRUE(fx.raw[0]->rounds.empty());
  EXPECT_TRUE(fx.raw[3]->rounds.empty());
  // Survivors never heard from them.
  for (ProcessId alive : {1u, 2u, 4u}) {
    for (ProcessId from : fx.raw[alive]->received_from) {
      EXPECT_NE(from, 0u);
      EXPECT_NE(from, 3u);
    }
  }
}

TEST(Executor, MidRunCorruptionStopsVictim) {
  Fixture fx(2);
  adv::CrashAdversary adv({1}, /*from_round=*/3);
  const auto exec = fx.make(adv);
  exec->run(5);
  // Ran rounds 1-2, then was corrupted before round 3's send step.
  EXPECT_EQ(fx.raw[1]->rounds, (std::vector<Round>{1, 2}));
}

TEST(Executor, CorruptionBudgetEnforced) {
  Fixture fx(1);  // t = 1
  adv::CrashAdversary adv({0, 1, 2});  // asks for three
  const auto exec = fx.make(adv);
  exec->run(1);
  EXPECT_EQ(exec->corrupted_count(), 1u);  // only t granted
}

/// Adversary that checks its rushing view and injects one spoof attempt.
class RushingProbe final : public Adversary {
 public:
  void setup(AdversaryControl& ctrl) override { ctrl.corrupt(0); }
  void act(Round r, AdversaryControl& ctrl) override {
    if (r != 1) return;
    // Rushing visibility: correct processes' round-1 messages are visible.
    saw = ctrl.posted_this_round().size();
    // Injection as a corrupted process works; as a correct one is dropped.
    ctrl.send_as(0, 1, std::make_shared<PingPayload>(1));
    ctrl.send_as(2, 1, std::make_shared<PingPayload>(1));  // not corrupted
  }
  std::size_t saw = 0;
};

TEST(Executor, RushingViewAndSpoofRejection) {
  Fixture fx(1);  // n = 3, process 0 corrupted
  RushingProbe adv;
  const auto exec = fx.make(adv);
  exec->run(1);
  EXPECT_EQ(adv.saw, 6u);  // 2 correct processes x 3 broadcast copies
  // Process 1 heard: correct 1, 2 (self + other) plus exactly one Byzantine
  // ping from 0 — the spoofed send_as(2, ...) was dropped.
  std::size_t from0 = 0, from2 = 0, from1 = 0;
  for (ProcessId f : fx.raw[1]->received_from) {
    from0 += (f == 0);
    from1 += (f == 1);
    from2 += (f == 2);
  }
  EXPECT_EQ(from0, 1u);
  EXPECT_EQ(from1, 1u);
  EXPECT_EQ(from2, 1u);
}

/// Malicious adversary probing the delivery path with out-of-range
/// recipient ids — regression for the out-of-bounds inbox write: every
/// junk-addressed injection must be dropped (no crash, no delivery, no
/// metering), while the in-range injection still lands.
class OutOfRangeSender final : public Adversary {
 public:
  void setup(AdversaryControl& ctrl) override { ctrl.corrupt(0); }
  void act(Round r, AdversaryControl& ctrl) override {
    if (r != 1) return;
    const std::uint32_t n = ctrl.n();
    ctrl.send_as(0, n, std::make_shared<PingPayload>(1));
    ctrl.send_as(0, n + 5, std::make_shared<PingPayload>(1));
    ctrl.send_as(0, kNoProcess, std::make_shared<PingPayload>(1));
    ctrl.send_as(0, 1, std::make_shared<PingPayload>(1));  // valid
  }
};

TEST(Executor, OutOfRangeRecipientInjectionIsDropped) {
  Fixture fx(1);  // n = 3
  OutOfRangeSender adv;
  const auto exec = fx.make(adv);
  exec->run(1);
  // Only the single valid injection was delivered and metered.
  EXPECT_EQ(exec->meter().messages_byzantine, 1u);
  std::size_t byz = 0;
  for (ProcessId f : fx.raw[1]->received_from) byz += (f == 0);
  EXPECT_EQ(byz, 1u);
}

/// Replays a correct message from its rushing view and records the words
/// the view claims — used to pin the view to the metered reality.
class ViewEcho final : public Adversary {
 public:
  void setup(AdversaryControl& ctrl) override { ctrl.corrupt(0); }
  void act(Round r, AdversaryControl& ctrl) override {
    if (r != 1) return;
    for (const Message& m : ctrl.posted_this_round()) {
      view_words += m.words;
      ctrl.send_as(0, m.to, m.body);
    }
  }
  std::size_t view_words = 0;
};

TEST(Executor, RushingViewMatchesMeteredDelivery) {
  // The view is derived from the network's posted messages, so its word
  // costs must sum to exactly what the meter recorded for correct senders
  // (plus the free self-copies), and replayed bodies must stay valid.
  Fixture fx(1);  // n = 3, process 0 corrupted => 2 correct broadcasters
  ViewEcho adv;
  const auto exec = fx.make(adv);
  exec->run(1);
  // 2 correct processes x 3 one-word broadcast copies in the view; the
  // meter saw only the 2x2 link-crossing ones.
  EXPECT_EQ(adv.view_words, 6u);
  EXPECT_EQ(exec->meter().words_correct, 4u);
  // All 6 replays were delivered; the 2 aimed at the corrupted process
  // itself were self-copies on 0's own link and cost nothing.
  EXPECT_EQ(exec->meter().messages_byzantine, 4u);
}

/// Adversary that tries to read an uncorrupted bundle (must abort) — covered
/// indirectly: we only verify corrupted access works.
TEST(Executor, BundleAccessForCorrupted) {
  Fixture fx(1);
  class KeyProbe final : public Adversary {
   public:
    void setup(AdversaryControl& ctrl) override {
      ctrl.corrupt(0);
      const KeyBundle& b = ctrl.bundle(0);
      got_key = (b.owner() == 0);
    }
    bool got_key = false;
  } adv;
  const auto exec = fx.make(adv);
  exec->run(1);
  EXPECT_TRUE(adv.got_key);
}

TEST(Executor, MessageRecorderSeesEveryLinkCrossing) {
  Fixture fx(1);  // n = 3
  adv::NullAdversary adv;
  std::size_t recorded = 0;
  Round max_round = 0;
  // Hooks are fixed at construction (ExecutorHooks) — there is no way to
  // install a recorder on a live executor, so the recorder provably sees
  // the whole run.
  ExecutorHooks hooks;
  hooks.recorder = [&](const Message& m, bool correct) {
    EXPECT_TRUE(correct);
    EXPECT_NE(m.from, m.to);  // self-deliveries excluded
    ++recorded;
    max_round = std::max(max_round, m.round);
  };
  const auto exec = fx.make(adv, std::move(hooks));
  exec->run(2);
  // 3 processes x 2 rounds x 2 link-crossing broadcast copies.
  EXPECT_EQ(recorded, 12u);
  EXPECT_EQ(max_round, 2u);
  EXPECT_EQ(exec->meter().messages_correct, recorded);
}

TEST(AdaptiveLeaderCrash, CorruptsUpcomingLeaders) {
  Fixture fx(2);  // n = 5
  // Phases of length 2 starting at round 1: leaders 0,1,2,... corrupted
  // just-in-time, budget 2.
  adv::AdaptiveLeaderCrash adv(1, 2, 5, 2);
  const auto exec = fx.make(adv);
  exec->run(6);
  EXPECT_TRUE(exec->is_corrupted(0));
  EXPECT_TRUE(exec->is_corrupted(1));
  EXPECT_FALSE(exec->is_corrupted(2));  // budget exhausted
  EXPECT_TRUE(fx.raw[0]->rounds.empty());
  EXPECT_EQ(fx.raw[1]->rounds, (std::vector<Round>{1, 2}));
}

}  // namespace
}  // namespace mewc
