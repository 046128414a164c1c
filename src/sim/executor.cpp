#include "sim/executor.hpp"

#include "common/check.hpp"
#include "sim/event_executor.hpp"

namespace mewc {

const char* executor_kind_name(ExecutorKind kind) {
  return kind == ExecutorKind::kEvent ? "event" : "lockstep";
}

std::optional<ExecutorKind> parse_executor_kind(std::string_view name) {
  if (name == "lockstep") return ExecutorKind::kLockstep;
  if (name == "event") return ExecutorKind::kEvent;
  return std::nullopt;
}

namespace {

/// Round-lockstep executor: drives correct processes and the adversary
/// through the synchronous schedule and owns the key material.
class Executor final : public IExecutor {
 public:
  /// `processes[i]` is the correct implementation of process i; entries for
  /// processes the adversary corrupts at setup simply never run. `bundles`
  /// are the key bundles the harness issued (processes hold non-owning
  /// pointers into this vector; vector move keeps element addresses stable).
  Executor(const ThresholdFamily& family, std::vector<KeyBundle> bundles,
           std::vector<std::unique_ptr<IProcess>> processes,
           Adversary& adversary, ExecutorHooks hooks = {});

  /// Runs rounds 1..total_rounds.
  void run(Round total_rounds) override;

  [[nodiscard]] const Meter& meter() const override {
    return network_.meter();
  }

  [[nodiscard]] bool is_corrupted(ProcessId pid) const override;
  [[nodiscard]] std::uint32_t corrupted_count() const override;
  [[nodiscard]] std::vector<ProcessId> corrupted() const override;

  [[nodiscard]] const KeyBundle& bundle(ProcessId pid) const override {
    return bundles_[pid];
  }

  [[nodiscard]] IProcess& process(ProcessId pid) override {
    return *processes_[pid];
  }
  [[nodiscard]] const IProcess& process(ProcessId pid) const override {
    return *processes_[pid];
  }

 private:
  class Control;

  const ThresholdFamily& family_;
  SyncNetwork network_;
  std::vector<KeyBundle> bundles_;
  std::vector<std::unique_ptr<IProcess>> processes_;
  Adversary& adversary_;
  std::vector<bool> corrupted_;
  std::uint32_t corrupted_count_ = 0;
  // Reused send buffers (cleared, never reconstructed): after the first few
  // rounds the send path allocates nothing. The rushing view itself lives
  // in the network, recorded post-transform at post time.
  Outbox send_outbox_;
  Outbox adversary_outbox_;
  Round current_round_ = 0;
};

/// Concrete capabilities surface handed to the adversary each round.
class Executor::Control final : public AdversaryControl {
 public:
  explicit Control(Executor& e) : e_(e) {}

  [[nodiscard]] std::uint32_t n() const override { return e_.network_.n(); }
  [[nodiscard]] std::uint32_t t() const override { return e_.family_.t(); }

  bool corrupt(ProcessId pid) override {
    if (pid >= n()) return false;
    if (e_.corrupted_[pid]) return true;
    if (e_.corrupted_count_ >= t()) return false;
    e_.corrupted_[pid] = true;
    ++e_.corrupted_count_;
    return true;
  }

  [[nodiscard]] bool is_corrupted(ProcessId pid) const override {
    return pid < n() && e_.corrupted_[pid];
  }

  [[nodiscard]] std::uint32_t corrupted_count() const override {
    return e_.corrupted_count_;
  }

  [[nodiscard]] const KeyBundle& bundle(ProcessId pid) const override {
    MEWC_CHECK_MSG(is_corrupted(pid),
                   "adversary touched uncompromised key material");
    return e_.bundles_[pid];
  }

  void send_as(ProcessId pid, ProcessId to, PayloadPtr body) override {
    if (!is_corrupted(pid) || body == nullptr) return;
    // Adversary-chosen recipients are validated here as well as in the
    // network: an id with no process behind it has no link, so the message
    // is dropped — never an out-of-bounds inbox write (see SyncNetwork).
    if (to >= n()) return;
    Outbox& out = e_.adversary_outbox_;
    out.clear();
    out.send(to, std::move(body));
    e_.network_.post(pid, e_.current_round_, out, /*correct=*/false);
  }

  void broadcast_as(ProcessId pid, const PayloadPtr& body) override {
    if (!is_corrupted(pid) || body == nullptr) return;
    Outbox& out = e_.adversary_outbox_;
    out.clear();
    out.broadcast(body);
    e_.network_.post(pid, e_.current_round_, out, /*correct=*/false);
  }

  [[nodiscard]] std::span<const Message> posted_this_round() const override {
    return e_.network_.posted_this_round();
  }

  [[nodiscard]] const ThresholdFamily& crypto() const override {
    return e_.family_;
  }

 private:
  Executor& e_;
};

Executor::Executor(const ThresholdFamily& family,
                   std::vector<KeyBundle> bundles,
                   std::vector<std::unique_ptr<IProcess>> processes,
                   Adversary& adversary, ExecutorHooks hooks)
    : family_(family),
      network_(family.n()),
      bundles_(std::move(bundles)),
      processes_(std::move(processes)),
      adversary_(adversary),
      corrupted_(family.n(), false),
      send_outbox_(family.n()),
      adversary_outbox_(family.n()) {
  MEWC_CHECK(bundles_.size() == family.n());
  MEWC_CHECK(processes_.size() == family.n());
  if (hooks.transform) network_.set_transform(std::move(hooks.transform));
  if (hooks.recorder) network_.set_recorder(std::move(hooks.recorder));
}

void Executor::run(Round total_rounds) {
  Control ctrl(*this);
  adversary_.setup(ctrl);

  const std::uint32_t n = network_.n();
  for (Round r = 1; r <= total_rounds; ++r) {
    current_round_ = r;
    adversary_.pre_round(r, ctrl);

    // Correct sends. The network records them as the adversary's rushing
    // view (post-transform, exactly as delivered and metered); the send
    // buffer is reused across processes and rounds, so the steady-state
    // loop performs no heap allocation.
    network_.begin_sends();
    for (ProcessId pid = 0; pid < n; ++pid) {
      if (corrupted_[pid]) continue;
      send_outbox_.clear();
      processes_[pid]->on_send(r, send_outbox_);
      network_.post(pid, r, send_outbox_, /*correct=*/true);
    }

    // Byzantine traffic, injected with full knowledge of the round's
    // correct messages (rushing adversary).
    adversary_.act(r, ctrl);

    // Delivery: every correct process consumes its round-r inbox.
    for (ProcessId pid = 0; pid < n; ++pid) {
      if (corrupted_[pid]) continue;
      processes_[pid]->on_receive(r, network_.inbox(pid));
    }
    network_.end_round();
  }
}

bool Executor::is_corrupted(ProcessId pid) const {
  return pid < corrupted_.size() && corrupted_[pid];
}

std::uint32_t Executor::corrupted_count() const { return corrupted_count_; }

std::vector<ProcessId> Executor::corrupted() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < corrupted_.size(); ++p) {
    if (corrupted_[p]) out.push_back(p);
  }
  return out;
}

}  // namespace

std::unique_ptr<IExecutor> make_executor(
    ExecutorKind kind, const ThresholdFamily& family,
    std::vector<KeyBundle> bundles,
    std::vector<std::unique_ptr<IProcess>> processes, Adversary& adversary,
    ExecutorHooks hooks) {
  if (kind == ExecutorKind::kEvent) {
    return std::make_unique<EventExecutor>(family, std::move(bundles),
                                           std::move(processes), adversary,
                                           std::move(hooks),
                                           EventExecutorConfig{});
  }
  return std::make_unique<Executor>(family, std::move(bundles),
                                    std::move(processes), adversary,
                                    std::move(hooks));
}

}  // namespace mewc
