// Slot-budget stop rule of the bench client.
//
// The nodes of a benchmark cluster run a fixed number of slots (--slots)
// and exit, so the run length is a slot budget, not a wall-clock window: a
// faster cluster finishes sooner, a slower one shows up as latency. An op
// issued too late for the remaining slots would never be acked; the client
// therefore stops issuing as soon as an op could no longer be served. A
// node proposes every n-th slot and takes one queued op per proposing
// turn, so an op queued behind `pending` others at its node is served
// within (pending + 1) * n slots of the cluster's current slot.
#pragma once

#include <cstdint>

namespace perfbench {

/// Estimates which slot the cluster is running from the (slot, time) pairs
/// the acks carry.
class SlotClock {
 public:
  /// `start_ns`: when the client started; `nominal_rate`: slots per second
  /// assumed until acks span at least one second.
  SlotClock(std::int64_t start_ns, double nominal_rate)
      : start_ns_(start_ns), nominal_rate_(nominal_rate) {}

  /// Records that `slot` had committed by `t_ns`.
  void observe(std::uint64_t slot, std::int64_t t_ns) {
    if (!seen_) {
      seen_ = true;
      first_slot_ = slot;
      first_ns_ = t_ns;
    }
    if (slot >= max_slot_) {
      max_slot_ = slot;
      max_ns_ = t_ns;
    }
  }

  /// Slots per second between the first ack and the highest-slot ack, or
  /// the nominal rate while that span is shorter than one second.
  [[nodiscard]] double rate() const {
    const std::int64_t span = max_ns_ - first_ns_;
    if (!seen_ || span < 1'000'000'000 || max_slot_ <= first_slot_) {
      return nominal_rate_;
    }
    return static_cast<double>(max_slot_ - first_slot_) * 1e9 /
           static_cast<double>(span);
  }

  /// The slot the cluster is estimated to be running at `t_ns`: the highest
  /// slot seen, advanced at rate() since it was seen. Before any ack the
  /// cluster is assumed to have started with the client.
  [[nodiscard]] double estimate(std::int64_t t_ns) const {
    if (!seen_) {
      return static_cast<double>(t_ns - start_ns_) * 1e-9 * nominal_rate_;
    }
    return static_cast<double>(max_slot_) +
           static_cast<double>(t_ns - max_ns_) * 1e-9 * rate();
  }

 private:
  std::int64_t start_ns_;
  double nominal_rate_;
  bool seen_ = false;
  std::uint64_t first_slot_ = 0;
  std::int64_t first_ns_ = 0;
  std::uint64_t max_slot_ = 0;
  std::int64_t max_ns_ = 0;
};

/// True when an op queued behind `pending` unacked ops at its node is still
/// served before the slot budget ends, keeping `guard` slots of slack for
/// the estimate's error.
[[nodiscard]] constexpr bool can_issue(double est_slot, std::uint64_t pending,
                                       std::uint32_t n,
                                       std::uint64_t slot_budget,
                                       std::uint64_t guard) {
  return est_slot + static_cast<double>((pending + 1) * n + guard) <=
         static_cast<double>(slot_budget);
}

}  // namespace perfbench
