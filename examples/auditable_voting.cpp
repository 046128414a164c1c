// Auditable committee voting: weak BA with the paper's Section 3 example
// predicate — a value is valid only with t+1 signed attestations that it
// was a committee member's actual input. Unique validity then behaves like
// strong unanimity on the attested ballots: the adversary cannot fabricate
// a ballot that was never cast, and ⊥ can only appear when the committee
// was genuinely split.
#include <cstdio>
#include <vector>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"

namespace {

using namespace mewc;

/// Collects t+1 attestations for `ballot` from distinct committee members
/// and wraps it as a certified wire value. (In a deployment this happens in
/// a gossip round; here the trusted setup mints it directly.)
WireValue attest(const ThresholdFamily& fam, std::uint64_t instance,
                 Value ballot, ProcessId first_attester) {
  std::vector<PartialSig> ps;
  for (ProcessId i = 0; i < fam.t() + 1; ++i) {
    const ProcessId member = (first_attester + i) % fam.n();
    ps.push_back(fam.scheme(fam.t() + 1)
                     .issue_share(member)
                     .partial_sign(input_attestation_digest(instance, ballot)));
  }
  auto qc = fam.scheme(fam.t() + 1).combine(ps);
  return WireValue::certified(ballot, *qc);
}

int run_round(const char* title, std::uint32_t f_crash, bool split_ballots) {
  auto spec = harness::RunSpec::for_t(3);  // 7-member committee
  std::printf("\n== %s ==\n", title);

  ThresholdFamily mint(spec.n, spec.t, spec.backend, spec.seed);
  std::vector<WireValue> ballots;
  for (ProcessId p = 0; p < spec.n; ++p) {
    const Value choice = split_ballots ? Value(p % 2) : Value(1);
    // A ballot is only proposable once t+1 members attest it was cast.
    ballots.push_back(attest(mint, spec.instance, choice, p));
  }

  harness::PredicateFactory factory = [](const ThresholdFamily& fam,
                                         std::uint64_t instance) {
    return std::make_shared<const InputCertified>(fam, instance);
  };

  std::vector<ProcessId> victims;
  for (std::uint32_t i = 0; i < f_crash; ++i) victims.push_back(i);
  adv::CrashAdversary adversary(victims);

  const auto res = harness::find_driver("weak-ba")->run(
      spec, {.values = ballots, .predicate = factory}, adversary);
  const WireValue outcome = res.decision();

  std::printf("crashed members: %u, agreement: %s\n", res.f(),
              res.agreement() ? "yes" : "NO");
  if (outcome.is_bottom()) {
    std::printf("outcome: no single auditable ballot (⊥) — committee split\n");
  } else {
    std::printf("outcome: ballot %llu, carried by a %u-of-%u attestation "
                "certificate (auditable)\n",
                static_cast<unsigned long long>(outcome.value.raw),
                spec.t + 1, spec.n);
  }
  std::printf("words: %llu, fallback: %s\n",
              static_cast<unsigned long long>(res.meter.words_correct),
              res.any_fallback() ? "yes" : "no");
  return res.agreement() ? 0 : 1;
}

}  // namespace

int main() {
  std::printf("auditable committee voting over weak BA (unique validity,\n"
              "Section 3 example predicate: t+1 input attestations)\n");

  int rc = 0;
  // Unanimous committee, no failures: the ballot must win, cheaply.
  rc |= run_round("unanimous ballots, f = 0", 0, false);
  // Unanimous committee, maximal crash: unique validity still forbids ⊥ —
  // the adversary cannot attest a ballot nobody cast.
  rc |= run_round("unanimous ballots, f = t crash", 3, false);
  // Split committee under crash: ⊥ (\"no auditable outcome\") is allowed,
  // but agreement must hold either way.
  rc |= run_round("split ballots, f = t crash", 3, true);
  return rc;
}
