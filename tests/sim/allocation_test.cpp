// Hot-path allocation regression: after a warm-up pass over the same round
// schedule, a simulation round must perform ZERO steady-state heap
// allocations on the send/deliver path — pooled payloads are recycled,
// outboxes, inboxes and the rushing view keep their capacity, and the
// meter's kind breakdown is interned (no per-record string or map-node
// churn). Counted with a global operator new override local to this test
// binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "net/arena.hpp"
#include "sim/executor.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEWC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MEWC_SANITIZED 1
#endif
#endif
#ifndef MEWC_SANITIZED
#define MEWC_SANITIZED 0
#endif

namespace {
std::atomic<std::uint64_t> g_news{0};
}

#if !MEWC_SANITIZED
// Counting overrides (sanitizer builds keep the instrumented allocator).
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace mewc {
namespace {

struct BeatPayload final : Payload {
  Round sent_in = 0;
  explicit BeatPayload(Round r) : sent_in(r) {}
  [[nodiscard]] std::size_t words() const override { return 1; }
  [[nodiscard]] const char* kind() const override { return "test.beat"; }
};

/// Broadcasts one pooled payload per round; receives without recording
/// anything (the measured section must not grow test-side buffers).
class BeatProcess final : public IProcess {
 public:
  void on_send(Round r, Outbox& out) override {
    out.broadcast(pool::make<BeatPayload>(r));
  }
  void on_receive(Round, std::span<const Message> inbox) override {
    received += inbox.size();
  }
  std::size_t received = 0;
};

struct Fixture {
  explicit Fixture(std::uint32_t t) : family(n_for_t(t), t) {}

  std::unique_ptr<IExecutor> make(Adversary& adv) {
    std::vector<KeyBundle> bundles;
    std::vector<std::unique_ptr<IProcess>> procs;
    for (ProcessId p = 0; p < family.n(); ++p) {
      bundles.push_back(family.issue_bundle(p));
      procs.push_back(std::make_unique<BeatProcess>());
    }
    return make_executor(ExecutorKind::kLockstep, family, std::move(bundles),
                         std::move(procs), adv);
  }

  ThresholdFamily family;
};

TEST(HotPathAllocations, SteadyStateRoundsAreAllocationFree) {
  if (MEWC_SANITIZED) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  ASSERT_TRUE(pool::enabled());
  Fixture fx(3);  // n = 7
  Adversary null_adv;
  const auto exec = fx.make(null_adv);
  constexpr Round kRounds = 16;
  exec->run(kRounds);  // warm-up: pools fill, buffers reach full capacity
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  exec->run(kRounds);  // same schedule again — the steady state
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state send/deliver path heap-allocated";
  EXPECT_EQ(exec->meter().words_correct,
            2ull * kRounds * 7 * 6);  // both passes fully metered
}

TEST(HotPathAllocations, PoolRecyclesPayloadBlocks) {
  ASSERT_TRUE(pool::enabled());
  Fixture fx(2);  // n = 5
  Adversary null_adv;
  const auto exec = fx.make(null_adv);
  exec->run(2);  // populate the free lists
  pool::reset_thread_stats();
  exec->run(8);
  const pool::Stats stats = pool::thread_stats();
  // One payload per process per round; every one after the warm-up must be
  // served from a free list.
  EXPECT_EQ(stats.fresh, 0u);
  EXPECT_GE(stats.reused, 8u * 5u);
}

TEST(HotPathAllocations, DisabledPoolStillRuns) {
  pool::set_enabled(false);
  Fixture fx(1);
  Adversary null_adv;
  const auto exec = fx.make(null_adv);
  exec->run(3);
  pool::set_enabled(true);
  EXPECT_EQ(exec->meter().words_correct, 3u * 3 * 2);
}

}  // namespace
}  // namespace mewc
