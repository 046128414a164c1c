#include "check/runner.hpp"

#include <map>
#include <utility>

#include "ba/adversaries/adversaries.hpp"
#include "ba/bb/bb.hpp"
#include "ba/harness.hpp"
#include "ba/strong_ba/strong_ba.hpp"
#include "ba/weak_ba/messages.hpp"
#include "check/adversary_registry.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace mewc::check {

namespace {

/// Live certificate scanner: verifies every threshold certificate a correct
/// process puts on the wire against the run's schemes, while the
/// ThresholdFamily still exists. Only correct senders are scanned —
/// receivers are expected to reject Byzantine garbage, so it is not an
/// invariant violation.
class CertScanner {
 public:
  CertScanner(std::uint32_t n, std::uint32_t t,
              std::vector<CertObservation>& out)
      : n_(n), t_(t), out_(out) {}

  void attach(const ThresholdFamily& family) { family_ = &family; }

  /// Verifies everything still queued for batch verification. Must run
  /// while the family is alive (RunSpec::on_teardown).
  void flush() {
    for (auto& [k, group] : pending_) flush_k(k);
  }

  void scan(const Message& m, bool correct) {
    if (!correct) return;
    const std::string kind = m.body->kind();

    if (const auto* p = payload_cast<wba::ProposeMsg>(m.body)) {
      scan_wire_value(m, kind, p->value);
    } else if (const auto* c = payload_cast<wba::CommitMsg>(m.body)) {
      observe(m, kind, "qc", c->qc, commit_quorum(n_, t_));
      scan_wire_value(m, kind, c->value);
    } else if (const auto* fz = payload_cast<wba::FinalizedMsg>(m.body)) {
      observe(m, kind, "qc", fz->qc, commit_quorum(n_, t_));
      scan_wire_value(m, kind, fz->value);
    } else if (const auto* h = payload_cast<wba::HelpMsg>(m.body)) {
      observe(m, kind, "decide_proof", h->decide_proof,
              commit_quorum(n_, t_));
      scan_wire_value(m, kind, h->value);
    } else if (const auto* fb = payload_cast<wba::FallbackMsg>(m.body)) {
      observe(m, kind, "fallback_qc", fb->fallback_qc, t_ + 1);
      if (fb->has_decision) {
        observe(m, kind, "decide_proof", fb->decide_proof,
                commit_quorum(n_, t_));
        scan_wire_value(m, kind, fb->value);
      }
    } else if (const auto* pc = payload_cast<sba::ProposeCertMsg>(m.body)) {
      observe(m, kind, "qc", pc->qc, t_ + 1);
    } else if (const auto* dc = payload_cast<sba::DecideCertMsg>(m.body)) {
      observe(m, kind, "qc", dc->qc, n_);
    } else if (const auto* sf = payload_cast<sba::FallbackMsg>(m.body)) {
      if (sf->has_decision) observe(m, kind, "proof", sf->proof, n_);
    } else if (const auto* sv = payload_cast<bb::SenderValueMsg>(m.body)) {
      scan_wire_value(m, kind, sv->value);
    } else if (const auto* rv = payload_cast<bb::ReplyValueMsg>(m.body)) {
      scan_wire_value(m, kind, rv->value);
    } else if (const auto* lv = payload_cast<bb::LeaderValueMsg>(m.body)) {
      scan_wire_value(m, kind, lv->value);
    }
    // ds.relay is deliberately NOT scanned: Dolev-Strong acceptance
    // verifies the signature chain but treats the carried value as opaque,
    // so correct processes legitimately relay Byzantine-originated values
    // whose embedded certificates never verify. The decision predicate
    // filters those at extraction time, not at relay time.
  }

 private:
  /// Certified values embedded in a WireValue (BB idk certificates) use the
  /// (t+1, n) scheme at minimum.
  void scan_wire_value(const Message& m, const std::string& kind,
                       const WireValue& w) {
    if (w.prov == Provenance::kCertified && w.cert) {
      observe(m, kind, "value.cert", *w.cert, t_ + 1);
    }
  }

  void observe(const Message& m, const std::string& kind,
               const char* field, const ThresholdSig& sig,
               std::uint32_t required_k) {
    CertObservation obs;
    obs.round = m.round;
    obs.from = m.from;
    obs.kind = kind;
    obs.field = field;
    obs.k = sig.k;
    obs.required_k = required_k;
    // scheme() aborts on unprovisioned k; a certificate claiming a foreign
    // threshold is unverifiable, which the checker flags.
    const bool provisioned = family_ != nullptr &&
                             (sig.k == t_ + 1 ||
                              sig.k == commit_quorum(n_, t_) || sig.k == n_);
    if (provisioned && family_->backend() == ThresholdBackend::kReal) {
      // Pairing verification is the expensive path: queue the certificate
      // and settle a whole batch with one random-weight check (two pairings
      // per batch instead of two per certificate), falling back to
      // individual verification only when a batch fails. The observation is
      // recorded now so out_ keeps wire order; verified lands at flush.
      out_.push_back(obs);
      auto& group = pending_[sig.k];
      group.push_back({sig, out_.size() - 1});
      if (group.size() >= kBatch) flush_k(sig.k);
      return;
    }
    obs.verified = provisioned && family_->scheme(sig.k).verify(sig);
    out_.push_back(obs);
  }

  void flush_k(std::uint32_t k) {
    auto& group = pending_[k];
    if (group.empty()) return;
    const auto* real =
        dynamic_cast<const RealThreshold*>(&family_->scheme(k));
    std::vector<ThresholdSig> sigs;
    sigs.reserve(group.size());
    for (const Queued& q : group) sigs.push_back(q.sig);
    if (real != nullptr && real->verify_batch(sigs)) {
      for (const Queued& q : group) out_[q.index].verified = true;
    } else {
      // At least one offender (or no batch path): identify each
      // certificate individually — same verdicts, just without the
      // batching discount.
      for (const Queued& q : group) {
        out_[q.index].verified = family_->scheme(k).verify(q.sig);
      }
    }
    group.clear();
  }

  /// A certificate awaiting batch verification and where its observation
  /// landed in out_.
  struct Queued {
    ThresholdSig sig;
    std::size_t index;
  };
  static constexpr std::size_t kBatch = 16;

  std::uint32_t n_;
  std::uint32_t t_;
  const ThresholdFamily* family_ = nullptr;
  std::vector<CertObservation>& out_;
  std::map<std::uint32_t, std::vector<Queued>> pending_;
};

std::vector<bool> corrupted_mask(std::uint32_t n,
                                 const std::vector<ProcessId>& corrupted) {
  std::vector<bool> mask(n, false);
  for (ProcessId p : corrupted) {
    if (p < n) mask[p] = true;
  }
  return mask;
}

}  // namespace

std::vector<WireValue> derive_inputs(const CellSpec& cell) {
  const harness::DriverTraits tr = protocol_driver(cell.protocol).traits();
  std::vector<WireValue> inputs;
  inputs.reserve(cell.n);
  Rng rng(hash_combine(cell.seed, 0x1497075a11ad0beeULL));

  if (tr.single_sender) {
    // Only the designated sender's input matters; keep everyone unanimous.
    inputs.assign(cell.n, WireValue::plain(Value(cell.value)));
  } else if (tr.binary_values) {
    // Binary inputs; half the seeds unanimous, half independent coins.
    if (rng.chance(1, 2)) {
      inputs.assign(cell.n, WireValue::plain(Value(cell.value & 1)));
    } else {
      for (std::uint32_t i = 0; i < cell.n; ++i) {
        inputs.push_back(WireValue::plain(Value(rng.below(2))));
      }
    }
  } else {
    if (rng.chance(1, 2)) {
      inputs.assign(cell.n, WireValue::plain(Value(cell.value)));
    } else {
      for (std::uint32_t i = 0; i < cell.n; ++i) {
        inputs.push_back(WireValue::plain(Value(1 + rng.below(3))));
      }
    }
  }
  return inputs;
}

RunRecord run_cell(const CellSpec& cell, const RunOptions& opts) {
  MEWC_CHECK_MSG(cell.n >= 2 * cell.t + 1, "cell needs n >= 2t+1");

  RunRecord record;
  record.cell = cell;
  record.inputs = derive_inputs(cell);

  auto spec = harness::RunSpec::with(cell.n, cell.t);
  spec.seed = cell.seed;
  spec.backend = cell.backend;
  spec.codec_roundtrip = cell.codec_roundtrip;
  spec.executor = cell.executor;

  // Trace-tool convention: the designated BB sender is the highest id, so
  // crash-style adversaries eating low ids leave it correct.
  const auto sender = static_cast<ProcessId>(cell.n - 1);

  CertScanner scanner(cell.n, cell.t, record.certs);
  spec.on_setup = [&scanner](const ThresholdFamily& family) {
    scanner.attach(family);
  };
  spec.on_teardown = [&scanner](const ThresholdFamily&) { scanner.flush(); };
  const bool keep = opts.record_messages;
  spec.recorder = [&record, &scanner, keep](const Message& m, bool correct) {
    if (keep) record.log.observe(m, correct);
    scanner.scan(m, correct);
  };

  AdversaryParams params;
  params.protocol = cell.protocol;
  params.n = cell.n;
  params.t = cell.t;
  params.f = cell.f;
  params.instance = spec.instance;
  params.seed = cell.seed;
  params.value = cell.value;
  params.sender = sender;
  auto adversary = make_adversary(cell.adversary, params);
  MEWC_CHECK_MSG(adversary != nullptr, "unknown adversary name");

  const harness::ProtocolDriver& driver = protocol_driver(cell.protocol);
  harness::RunInputs inputs;
  inputs.values = record.inputs;
  if (driver.traits().single_sender) {
    inputs.sender = sender;
    record.sender = sender;
  }

  const harness::RunReport res = driver.run(spec, inputs, *adversary);
  record.meter = res.meter;
  record.rounds = res.rounds;
  record.signatures_issued = res.signatures_issued;
  record.corrupted = corrupted_mask(cell.n, res.corrupted);
  record.any_fallback = res.any_fallback();
  record.decided.assign(cell.n, false);
  record.decisions.assign(cell.n, bottom_value());
  for (ProcessId p = 0; p < cell.n; ++p) {
    if (const auto& o = res.outcomes[p]) {
      record.decided[p] = o->decided;
      record.decisions[p] = o->decision;
    }
  }
  return record;
}

}  // namespace mewc::check
