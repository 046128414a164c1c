#include "ba/harness.hpp"

#include <algorithm>

#include "ba/baseline/baselines.hpp"
#include "ba/bb/bb.hpp"
#include "ba/fallback/fallback_process.hpp"
#include "ba/strong_ba/strong_ba.hpp"
#include "ba/vector/interactive_consistency.hpp"
#include "ba/weak_ba/weak_ba.hpp"
#include "wire/codec.hpp"

namespace mewc::harness {

// ---------------------------------------------------------------------------
// SetupCache + RunSpec
// ---------------------------------------------------------------------------

ThresholdFamily& SetupCache::family(std::uint32_t n, std::uint32_t t,
                                    ThresholdBackend backend,
                                    std::uint64_t seed) {
  const Key key{n, t, static_cast<int>(backend), seed};
  auto it = families_.find(key);
  if (it != families_.end()) {
    ++hits_;
    return *it->second;
  }
  ++misses_;
  auto family = std::make_unique<ThresholdFamily>(n, t, backend, seed);
  return *families_.emplace(key, std::move(family)).first->second;
}

CryptoVerifyStats SetupCache::crypto_verify_stats() const {
  CryptoVerifyStats total;
  for (const auto& [key, family] : families_) {
    total += family->crypto_verify_stats();
  }
  return total;
}

RunSpec RunSpec::checked(std::uint32_t n, std::uint32_t t) {
  MEWC_CHECK_MSG(n >= 2 * t + 1, "RunSpec requires n >= 2t+1");
  RunSpec s;
  s.n = n;
  s.t = t;
  return s;
}

std::string RunSpec::describe() const {
  std::string s = "n=" + std::to_string(n) + " t=" + std::to_string(t) +
                  " seed=" + std::to_string(seed);
  if (backend == ThresholdBackend::kShamir) s += " backend=shamir";
  if (backend == ThresholdBackend::kReal) s += " backend=real";
  if (codec_roundtrip) s += " roundtrip";
  if (executor == ExecutorKind::kEvent) s += " exec=event";
  return s;
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

bool RunReport::is_corrupted(ProcessId p) const {
  return std::find(corrupted.begin(), corrupted.end(), p) != corrupted.end();
}

bool RunReport::all_decided() const {
  return std::all_of(outcomes.begin(), outcomes.end(),
                     [](const auto& o) { return !o || o->decided; });
}

bool RunReport::agreement() const {
  const ProcessOutcome* first = nullptr;
  const std::vector<Value>* seen_vector = nullptr;
  for (const auto& o : outcomes) {
    if (!o) continue;
    if (first == nullptr) {
      first = &*o;
    } else if (!(first->decision == o->decision)) {
      return false;
    }
    if (!o->vector) continue;
    if (seen_vector == nullptr) {
      seen_vector = &*o->vector;
    } else if (*seen_vector != *o->vector) {
      return false;
    }
  }
  return true;
}

WireValue RunReport::decision() const {
  for (const auto& o : outcomes) {
    if (o) return o->decision;
  }
  return bottom_value();
}

std::vector<Value> RunReport::vector() const {
  for (const auto& o : outcomes) {
    if (o && o->vector) return *o->vector;
  }
  return {};
}

bool RunReport::any_fallback() const {
  return std::any_of(outcomes.begin(), outcomes.end(), [](const auto& o) {
    return o && o->fallback_participant;
  });
}

bool RunReport::all_fast() const {
  return std::all_of(outcomes.begin(), outcomes.end(),
                     [](const auto& o) { return !o || o->decided_fast; });
}

std::uint32_t RunReport::nonsilent_leaders() const {
  return static_cast<std::uint32_t>(
      std::count_if(outcomes.begin(), outcomes.end(), [](const auto& o) {
        return o && o->led_nonsilent_phase;
      }));
}

std::uint32_t RunReport::help_reqs() const {
  return static_cast<std::uint32_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const auto& o) { return o && o->sent_help_req; }));
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

std::vector<WireValue> ProtocolDriver::prepare(std::uint32_t n,
                                               Value base) const {
  Value v = base;
  if (traits().binary_values && !v.is_bottom() && v.raw > 1) v = Value(1);
  return std::vector<WireValue>(n, WireValue::plain(v));
}

RunReport ProtocolDriver::run(const RunSpec& spec, const RunInputs& inputs,
                              Adversary& adversary) const {
  MEWC_CHECK(inputs.values.size() == spec.n);
  if (traits().single_sender) {
    MEWC_CHECK_MSG(inputs.sender < spec.n,
                   "single-sender protocols need a designated sender");
  }

  std::optional<ThresholdFamily> owned;
  ThresholdFamily* fam = nullptr;
  if (spec.setup_cache != nullptr) {
    fam = &spec.setup_cache->family(spec.n, spec.t, spec.backend, spec.seed);
    // Cached families accumulate issuance across runs; per-run signature
    // counts must match a fresh family's, so start every run from zero.
    fam->pki().reset_signature_counters();
  } else {
    owned.emplace(spec.n, spec.t, spec.backend, spec.seed);
    fam = &*owned;
  }
  ThresholdFamily& family = *fam;

  std::vector<KeyBundle> bundles;
  bundles.reserve(spec.n);
  for (ProcessId p = 0; p < spec.n; ++p) {
    bundles.push_back(family.issue_bundle(p));
  }
  if (spec.on_setup) spec.on_setup(family);

  std::vector<std::unique_ptr<IProcess>> processes;
  processes.reserve(spec.n);
  for (ProcessId p = 0; p < spec.n; ++p) {
    ProtocolContext ctx;
    ctx.id = p;
    ctx.n = spec.n;
    ctx.t = spec.t;
    ctx.instance = spec.instance;
    ctx.crypto = &family;
    ctx.keys = &bundles[p];
    processes.push_back(make_process(ctx, inputs));
  }

  const Round rounds = total_rounds(spec.n, spec.t);
  ExecutorHooks hooks;
  if (spec.codec_roundtrip) hooks.transform = wire::roundtrip;
  hooks.recorder = spec.recorder;
  const std::unique_ptr<IExecutor> exec =
      make_executor(spec.executor, family, std::move(bundles),
                    std::move(processes), adversary, std::move(hooks));
  exec->run(rounds);
  if (spec.on_teardown) spec.on_teardown(family);

  RunReport r;
  r.protocol = name();
  if (traits().single_sender) r.sender = inputs.sender;
  r.meter = exec->meter();
  r.corrupted = exec->corrupted();
  r.signatures_issued = family.pki().signatures_issued();
  r.rounds = rounds;
  r.outcomes.reserve(spec.n);
  for (ProcessId p = 0; p < spec.n; ++p) {
    if (exec->is_corrupted(p)) {
      r.outcomes.emplace_back();
    } else {
      r.outcomes.emplace_back(outcome(exec->process(p)));
    }
  }
  return r;
}

namespace {

class BbDriver final : public ProtocolDriver {
 public:
  const char* name() const override { return "bb"; }
  DriverTraits traits() const override {
    // BB vetting phase j occupies rounds 3(j-1)+2 .. 3(j-1)+4; the killer
    // strikes ahead of the leader-value round (matching the tools' long-
    // standing geometry).
    DriverTraits tr;
    tr.single_sender = true;
    tr.phase_first = 4;
    tr.phase_len = 3;
    return tr;
  }
  Round total_rounds(std::uint32_t n, std::uint32_t t) const override {
    return bb::BbProcess::total_rounds(n, t);
  }
  Round help_round(std::uint32_t n) const override {
    // BB embeds a weak BA starting after dissemination + n vetting phases.
    return 1 + 3 * n + 5 * n + 1;
  }
  std::unique_ptr<IProcess> make_process(
      const ProtocolContext& ctx, const RunInputs& inputs) const override {
    return std::make_unique<bb::BbProcess>(ctx, inputs.sender,
                                           inputs.values[inputs.sender].value);
  }
  ProcessOutcome outcome(const IProcess& process) const override {
    const bb::BbStats& s = static_cast<const bb::BbProcess&>(process).stats();
    ProcessOutcome o;
    o.decided = s.decided;
    o.decision = WireValue::plain(s.decision);
    o.decided_round = s.decided_round;
    o.adopted_from_sender = s.adopted_from_sender;
    o.fallback_participant = s.fallback_participant;
    o.led_nonsilent_phase = s.led_nonsilent_phase;
    return o;
  }
};

class WbaDriver final : public ProtocolDriver {
 public:
  const char* name() const override { return "weak-ba"; }
  DriverTraits traits() const override {
    // Weak BA phase j occupies rounds 5(j-1)+1 .. 5j.
    DriverTraits tr;
    tr.phase_first = 3;
    tr.phase_len = 5;
    return tr;
  }
  Round total_rounds(std::uint32_t n, std::uint32_t t) const override {
    return wba::WeakBaProcess::total_rounds(n, t);
  }
  Round help_round(std::uint32_t n) const override { return 5 * n + 1; }
  std::unique_ptr<IProcess> make_process(
      const ProtocolContext& ctx, const RunInputs& inputs) const override {
    std::shared_ptr<const ValidityPredicate> predicate;
    if (inputs.predicate) {
      predicate = inputs.predicate(*ctx.crypto, ctx.instance);
    } else {
      predicate = std::make_shared<const AlwaysValid>();
    }
    return std::make_unique<wba::WeakBaProcess>(ctx, std::move(predicate),
                                                inputs.values[ctx.id]);
  }
  ProcessOutcome outcome(const IProcess& process) const override {
    const wba::WbaStats& s =
        static_cast<const wba::WeakBaProcess&>(process).stats();
    ProcessOutcome o;
    o.decided = s.decided;
    o.decision = s.decision;
    o.decided_round = s.decided_round;
    o.decided_phase = s.decided_phase;
    o.fallback_participant = s.fallback_participant;
    o.led_nonsilent_phase = s.led_nonsilent_phase;
    o.sent_help_req = s.sent_help_req;
    return o;
  }
};

class SbaDriver final : public ProtocolDriver {
 public:
  const char* name() const override { return "strong-ba"; }
  DriverTraits traits() const override {
    DriverTraits tr;
    tr.binary_values = true;
    return tr;
  }
  Round total_rounds(std::uint32_t, std::uint32_t t) const override {
    return sba::StrongBaProcess::total_rounds(t);
  }
  std::unique_ptr<IProcess> make_process(
      const ProtocolContext& ctx, const RunInputs& inputs) const override {
    return std::make_unique<sba::StrongBaProcess>(ctx,
                                                  inputs.values[ctx.id].value);
  }
  ProcessOutcome outcome(const IProcess& process) const override {
    const sba::SbaStats& s =
        static_cast<const sba::StrongBaProcess&>(process).stats();
    ProcessOutcome o;
    o.decided = s.decided;
    o.decision = WireValue::plain(s.decision);
    o.decided_round = s.decided_round;
    o.decided_fast = s.decided_fast;
    o.fallback_participant = s.fallback_participant;
    return o;
  }
};

class FallbackDriver final : public ProtocolDriver {
 public:
  const char* name() const override { return "fallback"; }
  DriverTraits traits() const override { return {}; }
  Round total_rounds(std::uint32_t, std::uint32_t t) const override {
    return fallback::FallbackBaProcess::total_rounds(t);
  }
  std::unique_ptr<IProcess> make_process(
      const ProtocolContext& ctx, const RunInputs& inputs) const override {
    return std::make_unique<fallback::FallbackBaProcess>(
        ctx, inputs.values[ctx.id]);
  }
  ProcessOutcome outcome(const IProcess& process) const override {
    // A_fallback always decides by its last round.
    ProcessOutcome o;
    o.decided = true;
    o.decision =
        static_cast<const fallback::FallbackBaProcess&>(process).decision();
    return o;
  }
};

class DsBbDriver final : public ProtocolDriver {
 public:
  const char* name() const override { return "ds-bb"; }
  DriverTraits traits() const override {
    DriverTraits tr;
    tr.single_sender = true;
    return tr;
  }
  Round total_rounds(std::uint32_t, std::uint32_t t) const override {
    return baseline::DolevStrongBbProcess::total_rounds(t);
  }
  std::unique_ptr<IProcess> make_process(
      const ProtocolContext& ctx, const RunInputs& inputs) const override {
    return std::make_unique<baseline::DolevStrongBbProcess>(
        ctx, inputs.sender, inputs.values[inputs.sender].value);
  }
  ProcessOutcome outcome(const IProcess& process) const override {
    // Dolev-Strong always decides by its last round.
    ProcessOutcome o;
    o.decided = true;
    o.decision = WireValue::plain(
        static_cast<const baseline::DolevStrongBbProcess&>(process)
            .decision());
    return o;
  }
};

class IcDriver final : public ProtocolDriver {
 public:
  const char* name() const override { return "ic"; }
  DriverTraits traits() const override {
    DriverTraits tr;
    tr.vector_output = true;
    return tr;
  }
  Round total_rounds(std::uint32_t n, std::uint32_t t) const override {
    return ic::InteractiveConsistencyProcess::total_rounds(n, t);
  }
  std::unique_ptr<IProcess> make_process(
      const ProtocolContext& ctx, const RunInputs& inputs) const override {
    return std::make_unique<ic::InteractiveConsistencyProcess>(
        ctx, inputs.values[ctx.id].value);
  }
  ProcessOutcome outcome(const IProcess& process) const override {
    const ic::IcStats& s =
        static_cast<const ic::InteractiveConsistencyProcess&>(process)
            .stats();
    ProcessOutcome o;
    o.decided = s.decided;
    if (s.decided) o.vector = s.vector;
    return o;
  }
};

}  // namespace

const std::vector<const ProtocolDriver*>& drivers() {
  static const BbDriver bb_driver;
  static const WbaDriver wba_driver;
  static const SbaDriver sba_driver;
  static const FallbackDriver fallback_driver;
  static const DsBbDriver ds_bb_driver;
  static const IcDriver ic_driver;
  static const std::vector<const ProtocolDriver*> kAll = {
      &bb_driver,      &wba_driver,   &sba_driver,
      &fallback_driver, &ds_bb_driver, &ic_driver};
  return kAll;
}

const ProtocolDriver* find_driver(std::string_view name) {
  for (const ProtocolDriver* d : drivers()) {
    if (name == d->name()) return d;
  }
  return nullptr;
}

}  // namespace mewc::harness
