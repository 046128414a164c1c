// Substrate microbenchmarks: signing, verification, threshold combination
// (both ideal backends), the kReal curve kernels and memo-miss kReal
// verification, and wire codec throughput. Not a paper artifact — these
// exist so library users can see what the crypto substitution (DESIGN.md
// SUB-2) costs and where simulation time goes.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "crypto/multisig.hpp"
#include "crypto/realcurve.hpp"
#include "crypto/shamir.hpp"
#include "wire/codec.hpp"
#include "ba/weak_ba/messages.hpp"

namespace mewc::bench {
namespace {

void bm_sign(benchmark::State& state) {
  Pki pki(64);
  const PrivateKey key = pki.issue_key(0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const Digest d = DigestBuilder("b").field(i++).done();
    benchmark::DoNotOptimize(key.sign(d));
  }
}
BENCHMARK(bm_sign);

void bm_verify(benchmark::State& state) {
  Pki pki(64);
  const Signature sig =
      pki.issue_key(0).sign(DigestBuilder("b").field(1).done());
  for (auto _ : state) benchmark::DoNotOptimize(pki.verify(sig));
}
BENCHMARK(bm_verify);

void bm_aggregate_verify(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Pki pki(n);
  const Digest d = DigestBuilder("b").field(1).done();
  AggSignature agg = aggregate_start(pki, pki.issue_key(0).sign(d));
  for (ProcessId p = 1; p < n; ++p) {
    aggregate_add(pki, agg, pki.issue_key(p).sign(d));
  }
  for (auto _ : state) benchmark::DoNotOptimize(aggregate_verify(pki, agg));
}
BENCHMARK(bm_aggregate_verify)->Arg(16)->Arg(64)->Arg(256);

template <typename Scheme>
void bm_threshold_combine(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t n = 2 * k;
  Scheme scheme(k, n, 0xbe7c);
  const Digest d = DigestBuilder("b").field(1).done();
  std::vector<PartialSig> partials;
  for (ProcessId p = 0; p < k; ++p) {
    partials.push_back(scheme.issue_share(p).partial_sign(d));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.combine(partials));
  }
}
BENCHMARK(bm_threshold_combine<SimThreshold>)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(bm_threshold_combine<ShamirThreshold>)->Arg(4)->Arg(16)->Arg(64);

void bm_codec_roundtrip(benchmark::State& state) {
  ThresholdFamily family(7, 3);
  wba::FallbackMsg msg;
  std::vector<PartialSig> ps;
  for (ProcessId p = 0; p < 4; ++p) {
    ps.push_back(family.scheme(4).issue_share(p).partial_sign(
        DigestBuilder("b").field(1).done()));
  }
  msg.fallback_qc = *family.scheme(4).combine(ps);
  msg.has_decision = true;
  msg.value = WireValue::plain(Value(9));
  msg.proof_phase = 2;
  msg.decide_proof = msg.fallback_qc;
  for (auto _ : state) {
    const auto bytes = wire::encode(msg);
    benchmark::DoNotOptimize(wire::decode(*bytes));
  }
}
BENCHMARK(bm_codec_roundtrip);

void bm_trusted_setup(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    ThresholdFamily family(n_for_t(t), t, ThresholdBackend::kShamir);
    benchmark::DoNotOptimize(family.n());
  }
}
BENCHMARK(bm_trusted_setup)->Arg(10)->Arg(50)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// kReal curve kernels. Inputs vary per iteration so no call is repeated.

/// A seeded stream of scalars in [1, q).
[[nodiscard]] std::uint64_t bench_scalar(std::uint64_t i) {
  return 1 + mix64(i ^ 0x5ca1a7ULL) % (rc::kQ - 1);
}

void bm_real_mul(benchmark::State& state) {
  std::uint64_t a = rc::reduce(mix64(1));
  const std::uint64_t b = rc::reduce(mix64(2));
  for (auto _ : state) {
    a = rc::mul(a, b);  // a dependent chain: latency, not throughput
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(bm_real_mul);

void bm_real_scalar_mul(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc::scalar_mul(bench_scalar(i++), rc::kG));
  }
}
BENCHMARK(bm_real_scalar_mul);

void bm_real_in_subgroup(benchmark::State& state) {
  std::vector<rc::Point> points;
  for (std::uint64_t i = 0; i < 64; ++i) {
    points.push_back(rc::hash_to_point(mix64(i)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc::in_subgroup(points[i++ % points.size()]));
  }
}
BENCHMARK(bm_real_in_subgroup);

void bm_real_hash_to_point(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc::hash_to_point(mix64(i++)));
  }
}
BENCHMARK(bm_real_hash_to_point);

void bm_real_pairing(benchmark::State& state) {
  const rc::Point p = rc::scalar_mul(bench_scalar(1), rc::kG);
  std::vector<rc::Point> qs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    qs.push_back(rc::hash_to_point(mix64(i)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc::pairing(p, qs[i++ % qs.size()]));
  }
}
BENCHMARK(bm_real_pairing);

void bm_real_pairing_table(benchmark::State& state) {
  const rc::PairingTable table(rc::scalar_mul(bench_scalar(1), rc::kG));
  std::vector<rc::Point> qs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    qs.push_back(rc::hash_to_point(mix64(i)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pairing(qs[i++ % qs.size()]));
  }
}
BENCHMARK(bm_real_pairing_table);

// Pki verification under kReal. Every iteration checks a different
// pre-generated digest, so the verification memo never answers: each
// sample is a full subgroup check + hash + pairing pair.
constexpr int kRealVerifyIterations = 2000;

void bm_real_pki_verify(benchmark::State& state) {
  const Pki pki(9, 0x5e7u, ThresholdBackend::kReal);
  const PrivateKey key = pki.issue_key(0);
  std::vector<Signature> sigs;
  for (int i = 0; i < kRealVerifyIterations; ++i) {
    sigs.push_back(key.sign(DigestBuilder("b").field(i).done()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    if (!pki.verify(sigs[i++])) state.SkipWithError("signature rejected");
  }
  if (pki.crypto_verify_stats().memo_hits != 0) {
    state.SkipWithError("verification memo answered");
  }
}
BENCHMARK(bm_real_pki_verify)->Iterations(kRealVerifyIterations);

void bm_real_verify_aggregate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const Pki pki(n, 0x5e7u, ThresholdBackend::kReal);
  std::vector<PrivateKey> keys;
  for (ProcessId p = 0; p < n; ++p) keys.push_back(pki.issue_key(p));
  std::vector<AggSignature> aggs;
  for (int i = 0; i < kRealVerifyIterations; ++i) {
    const Digest d = DigestBuilder("b").field(i).done();
    AggSignature agg = aggregate_start(pki, keys[0].sign(d));
    for (ProcessId p = 1; p < n; ++p) {
      aggregate_add(pki, agg, keys[p].sign(d));
    }
    aggs.push_back(std::move(agg));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    if (!aggregate_verify(pki, aggs[i++])) {
      state.SkipWithError("aggregate rejected");
    }
  }
  if (pki.crypto_verify_stats().memo_hits != 0) {
    state.SkipWithError("verification memo answered");
  }
}
BENCHMARK(bm_real_verify_aggregate)
    ->Arg(9)
    ->Iterations(kRealVerifyIterations);

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) {
  mewc::bench::heading("substrate microbenchmarks (crypto + codec)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
