#include "micro.hpp"

#include "check/runner.hpp"
#include "common/hash.hpp"
#include "crypto/realcurve.hpp"
#include "trace.hpp"
#include "wire/codec.hpp"

namespace perfbench {

CodecTiming time_codec(const std::vector<mewc::PayloadPtr>& payloads,
                       int passes) {
  CodecTiming out;
  std::vector<const mewc::Payload*> wired;
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const mewc::PayloadPtr& p : payloads) {
    std::vector<std::uint8_t> bytes;
    if (p == nullptr || !mewc::wire::encode_into(*p, bytes)) continue;
    wired.push_back(p.get());
    encoded.push_back(std::move(bytes));
  }
  out.messages = wired.size();
  if (wired.empty() || passes <= 0) return out;

  std::vector<std::uint8_t> buf;
  std::uint64_t sink = 0;
  std::int64_t t0 = now_ns();
  for (int r = 0; r < passes; ++r) {
    for (const mewc::Payload* p : wired) {
      if (mewc::wire::encode_into(*p, buf)) sink += buf.size();
    }
  }
  const std::int64_t encode_total = now_ns() - t0;
  t0 = now_ns();
  for (int r = 0; r < passes; ++r) {
    for (const std::vector<std::uint8_t>& bytes : encoded) {
      if (mewc::wire::decode(bytes) == nullptr) out.ok = false;
    }
  }
  const std::int64_t decode_total = now_ns() - t0;
  const double count = static_cast<double>(wired.size()) * passes;
  out.encode_ns = static_cast<double>(encode_total) / count;
  out.decode_ns = static_cast<double>(decode_total) / count;
  if (sink == 0) out.ok = false;
  return out;
}

std::vector<mewc::PayloadPtr> record_payloads(
    const std::vector<mewc::check::CellSpec>& cells, std::size_t cap) {
  std::vector<mewc::PayloadPtr> out;
  mewc::check::RunOptions opts;
  opts.record_messages = true;
  for (const mewc::check::CellSpec& cell : cells) {
    const mewc::check::RunRecord rec = mewc::check::run_cell(cell, opts);
    for (const mewc::check::RecordedMessage& m : rec.log.messages) {
      if (out.size() >= cap) return out;
      out.push_back(m.body);
    }
  }
  return out;
}

PairingTiming time_pairing(std::uint64_t seed, int iterations) {
  using namespace mewc::rc;
  const std::uint64_t a = 1 + mewc::mix64(seed ^ 0x9a1) % (kQ - 1);
  const std::uint64_t b = 1 + mewc::mix64(seed ^ 0x9a2) % (kQ - 1);
  const Point p = scalar_mul(a, kG);
  const Point q = scalar_mul(b, kG);
  PairingTiming out;
  // e(aG, bG) == e(G, G)^(ab)
  out.bilinear = pairing(p, q) == fp2_pow(pairing(kG, kG), q_mul(a, b));
  Fp2 acc = fp2_one();
  for (int i = 0; i < iterations / 10; ++i) acc = fp2_mul(acc, pairing(p, q));
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < iterations; ++i) {
    acc = fp2_mul(acc, (i & 1) != 0 ? pairing(p, q) : pairing(q, p));
  }
  out.pairing_us =
      static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(iterations);
  if (acc == Fp2{0, 0}) out.bilinear = false;  // keeps `acc` observable
  return out;
}

}  // namespace perfbench
