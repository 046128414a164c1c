// node::Replica against the simulator: four replicas on threads, each
// hosting only its own process over a LoopbackHub with watermark round
// closure, must build exactly the ledger a simulated smr::Ledger builds for
// the same seed and instance lanes — slot values, rolling digest and
// checkpoint records — and their per-node word meters must tile the
// simulated meter of every slot and checkpoint.
#include "node/replica.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "net/loopback.hpp"

namespace mewc::node {
namespace {

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kT = 1;
constexpr std::uint64_t kSeed = 91;
constexpr std::uint64_t kBaseInstance = 3000;
constexpr std::uint32_t kCheckpointEvery = 2;
constexpr std::uint64_t kSlots = 6;

Value proposal_for(std::uint64_t slot) { return Value(500 + slot); }

struct NodeResult {
  std::vector<smr::SlotRecord> slots;
  std::vector<smr::CheckpointRecord> checkpoints;
  std::uint64_t digest = 0;
  std::uint64_t round_timeouts = 0;
};

TEST(ReplicaCluster, MatchesSimulatedLedger) {
  smr::Ledger::Config lc;
  lc.n = kN;
  lc.t = kT;
  lc.backend = ThresholdBackend::kSim;
  lc.seed = kSeed;
  lc.checkpoint_every = kCheckpointEvery;
  lc.base_instance = kBaseInstance;
  smr::Ledger sim(lc);
  for (std::uint64_t s = 0; s < kSlots; ++s) sim.append(proposal_for(s));
  ASSERT_TRUE(sim.healthy());
  ASSERT_EQ(sim.checkpoints().size(), kSlots / kCheckpointEvery);

  net::LoopbackHub hub(kN);
  std::vector<NodeResult> results(kN);
  std::vector<std::thread> threads;
  for (ProcessId id = 0; id < kN; ++id) {
    threads.emplace_back([&, id] {
      // Generous deadline: rounds close on peer watermarks; the timeout
      // only fires if a peer stalls.
      net::TimeoutRoundSync sync(hub.watermarks(), id,
                                 std::chrono::milliseconds(10'000));
      ReplicaConfig rc;
      rc.id = id;
      rc.n = kN;
      rc.t = kT;
      rc.backend = ThresholdBackend::kSim;
      rc.seed = kSeed;
      rc.checkpoint_every = kCheckpointEvery;
      rc.base_instance = kBaseInstance;
      rc.transport = &hub.endpoint(id);
      rc.sync = &sync;
      Replica replica(rc);
      for (std::uint64_t s = 0; s < kSlots; ++s) {
        replica.run_slot(proposal_for(s));
      }
      results[id].slots = replica.ledger().slots();
      results[id].checkpoints = replica.ledger().checkpoints();
      results[id].digest = replica.ledger().ledger_digest();
      results[id].round_timeouts = sync.timeouts();
    });
  }
  for (auto& th : threads) th.join();

  for (ProcessId id = 0; id < kN; ++id) {
    const NodeResult& r = results[id];
    EXPECT_EQ(r.round_timeouts, 0u) << "node " << id;
    EXPECT_EQ(r.digest, sim.ledger_digest()) << "node " << id;
    ASSERT_EQ(r.slots.size(), kSlots) << "node " << id;
    for (std::uint64_t s = 0; s < kSlots; ++s) {
      const smr::SlotRecord& want = sim.slots()[s];
      const smr::SlotRecord& got = r.slots[s];
      EXPECT_EQ(got.proposer, want.proposer) << "node " << id << " slot " << s;
      EXPECT_EQ(got.value, want.value) << "node " << id << " slot " << s;
      EXPECT_EQ(got.skipped, want.skipped) << "node " << id << " slot " << s;
      EXPECT_EQ(got.agreement, want.agreement)
          << "node " << id << " slot " << s;
      EXPECT_EQ(got.fallback, want.fallback)
          << "node " << id << " slot " << s;
    }
    ASSERT_EQ(r.checkpoints.size(), sim.checkpoints().size())
        << "node " << id;
    for (std::size_t c = 0; c < r.checkpoints.size(); ++c) {
      const smr::CheckpointRecord& want = sim.checkpoints()[c];
      const smr::CheckpointRecord& got = r.checkpoints[c];
      EXPECT_EQ(got.after_slot, want.after_slot) << "node " << id;
      EXPECT_EQ(got.ledger_digest, want.ledger_digest) << "node " << id;
      EXPECT_EQ(got.accepted, want.accepted) << "node " << id;
      EXPECT_EQ(got.agreement, want.agreement) << "node " << id;
    }
  }

  // Each replica meters only its own process's sends, so the nodes'
  // per-instance words add up to the simulated instance's words_correct.
  for (std::uint64_t s = 0; s < kSlots; ++s) {
    std::uint64_t words = 0;
    for (const NodeResult& r : results) words += r.slots[s].words;
    EXPECT_EQ(words, sim.slots()[s].words) << "slot " << s;
  }
  for (std::size_t c = 0; c < sim.checkpoints().size(); ++c) {
    std::uint64_t words = 0;
    for (const NodeResult& r : results) words += r.checkpoints[c].words;
    EXPECT_EQ(words, sim.checkpoints()[c].words) << "checkpoint " << c;
  }
}

}  // namespace
}  // namespace mewc::node
