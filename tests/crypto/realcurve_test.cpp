// The toy pairing curve behind ThresholdBackend::kReal: group law, subgroup
// structure, pairing bilinearity, the strict compressed encoding, the fast
// kernels against naive reference implementations, and known-answer vectors
// in tests/crypto/golden/ pinning the exact bytes (any drift is a
// wire-format break for every real-backend tag — regenerate with
// MEWC_UPDATE_GOLDEN=1 only when deliberate).
#include "crypto/realcurve.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace mewc::rc {
namespace {

// ---------------------------------------------------------------------------
// Group structure.
// ---------------------------------------------------------------------------

TEST(RealCurve, ParametersAreTheDocumentedOnes) {
  EXPECT_EQ(kP, 2305843009213682923ULL);
  EXPECT_EQ(kP % 4, 3u);
  EXPECT_EQ(kP + 1, 4 * kQ);  // cofactor 4
}

TEST(RealCurve, GeneratorHasExactOrderQ) {
  EXPECT_TRUE(on_curve(kG));
  EXPECT_FALSE(kG.inf);
  EXPECT_TRUE(scalar_mul(kQ, kG).inf);
  // q is prime, so exact order q follows from q*G == inf and G != inf; pin
  // a couple of proper divisor-free checks anyway (q odd, so q/2 rounds).
  EXPECT_FALSE(scalar_mul(kQ / 2, kG).inf);
  EXPECT_FALSE(scalar_mul(2, kG).inf);
  EXPECT_TRUE(in_subgroup(kG));
}

TEST(RealCurve, GroupLawIdentities) {
  const Point p = scalar_mul(12345, kG);
  const Point q = scalar_mul(67890, kG);
  const Point inf;  // default-constructed = infinity

  EXPECT_EQ(point_add(p, inf), p);
  EXPECT_EQ(point_add(inf, p), p);
  EXPECT_TRUE(point_add(p, point_neg(p)).inf);
  EXPECT_EQ(point_add(p, q), point_add(q, p));
  EXPECT_EQ(point_add(p, p), point_dbl(p));
  // Associativity spot check: (p + q) + p == p + (q + p).
  EXPECT_EQ(point_add(point_add(p, q), p), point_add(p, point_add(q, p)));
}

TEST(RealCurve, LadderMatchesNaiveAddition) {
  Point naive;
  for (int i = 0; i < 257; ++i) naive = point_add(naive, kG);
  EXPECT_EQ(scalar_mul(257, kG), naive);
  EXPECT_TRUE(scalar_mul(0, kG).inf);
  EXPECT_EQ(scalar_mul(1, kG), kG);
  // Scalars reduce mod the group order.
  EXPECT_EQ(scalar_mul(kQ + 7, kG), scalar_mul(7, kG));
}

TEST(RealCurve, HashToPointLandsInSubgroup) {
  for (std::uint64_t h : {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL}) {
    const Point p = hash_to_point(h);
    EXPECT_FALSE(p.inf);
    EXPECT_TRUE(on_curve(p));
    EXPECT_TRUE(in_subgroup(p)) << "h=" << h;
  }
  // Try-and-increment means adjacent inputs can legitimately land on the
  // same x (callers always pre-hash with domain separation); far-apart
  // inputs must not — a collision there means the scan is degenerate.
  EXPECT_NE(hash_to_point(0x1111111111ULL), hash_to_point(0x2222222222ULL));
}

TEST(RealCurve, CofactorClearingRejectsSmallOrderComponent) {
  // A random curve point (pre-clearing) generally has order 4q; the
  // subgroup check must reject points with a surviving 4-torsion component.
  // Find one by taking hash_to_point's pre-cleared x candidates: scan for a
  // curve point NOT in the subgroup.
  bool found = false;
  for (std::uint64_t x = 2; x < 200 && !found; ++x) {
    const std::uint64_t rhs = add(mul(mul(x, x), x), x);  // x^3 + x
    if (!is_square(rhs)) continue;
    const std::uint64_t y = sqrt(rhs);
    if (mul(y, y) != rhs) continue;
    const Point p{x, y, false};
    if (!in_subgroup(p)) {
      found = true;
      // Clearing the cofactor lands it in the subgroup.
      const Point cleared = scalar_mul(4, p);
      EXPECT_TRUE(cleared.inf || in_subgroup(cleared));
    }
  }
  EXPECT_TRUE(found) << "no 4-torsion-bearing point in scan range";
}

// ---------------------------------------------------------------------------
// Pairing.
// ---------------------------------------------------------------------------

TEST(RealCurve, PairingBilinearAndNondegenerate) {
  const Point h = hash_to_point(123456789);
  const Fp2 e = pairing(kG, h);
  EXPECT_FALSE(e == fp2_one()) << "degenerate pairing";
  EXPECT_EQ(fp2_pow(e, kQ), fp2_one()) << "pairing value not order q";

  const std::uint64_t a = 987654321, b = 55555;
  EXPECT_EQ(pairing(scalar_mul(a, kG), scalar_mul(b, h)),
            fp2_pow(e, q_mul(a, b)));
  // Linearity in each slot separately.
  EXPECT_EQ(pairing(scalar_mul(a, kG), h), fp2_pow(e, a));
  EXPECT_EQ(pairing(kG, scalar_mul(b, h)), fp2_pow(e, b));
}

TEST(RealCurve, PairingOfInfinityIsOne) {
  const Point inf;
  EXPECT_EQ(pairing(inf, kG), fp2_one());
  EXPECT_EQ(pairing(kG, inf), fp2_one());
}

// ---------------------------------------------------------------------------
// Kernel equivalence, on edge inputs and seeded random ones: the field
// multiply against `unsigned __int128 %`, the ladder and the subgroup check
// against affine double-and-add, the table pairing against the generic one.
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b,
                                    std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b %
                                    m);
}

/// Plain affine double-and-add over all 64 bits: the group law only.
[[nodiscard]] Point naive_mul(std::uint64_t k, Point p) {
  Point acc;  // infinity
  for (int i = 63; i >= 0; --i) {
    acc = point_dbl(acc);
    if (((k >> i) & 1) != 0) acc = point_add(acc, p);
  }
  return acc;
}

/// The curve point (x, sqrt(x^3 + x)); fails the test when x has none.
[[nodiscard]] Point lift_x(std::uint64_t x) {
  const std::uint64_t rhs = add(mul(mul(x, x), x), x);
  const std::uint64_t y = sqrt(rhs);
  EXPECT_EQ(mul(y, y), rhs) << "x=" << x << " is not on the curve";
  return Point{x, y, false};
}

/// Exact order of an on-curve point, among the divisors of 4q.
[[nodiscard]] std::uint64_t naive_order(Point p) {
  for (std::uint64_t d : std::initializer_list<std::uint64_t>{1, 2, 4, kQ,
                                                             2 * kQ}) {
    if (naive_mul(d, p).inf) return d;
  }
  return 4 * kQ;
}

/// Curve points outside the order-q subgroup: the first ones of order 4q
/// and 2q on an x scan, and a point of order 4.
struct RawPoints {
  Point order_4q;
  Point order_2q;
  Point order_4;
};

[[nodiscard]] RawPoints raw_points() {
  RawPoints out;
  bool have_4q = false;
  bool have_2q = false;
  for (std::uint64_t x = 2; !(have_4q && have_2q); ++x) {
    if (!is_square(add(mul(mul(x, x), x), x))) continue;
    const Point p = lift_x(x);
    const std::uint64_t order = naive_order(p);
    if (order == 4 * kQ && !have_4q) {
      out.order_4q = p;
      have_4q = true;
    } else if (order == 2 * kQ && !have_2q) {
      out.order_2q = p;
      have_2q = true;
    }
  }
  // 2P = (0, 0) iff x(P)^2 = 1; exactly one of x = +-1 is on the curve
  // because -1 is a non-residue mod p.
  out.order_4 = is_square(2) ? lift_x(1) : lift_x(neg(1));
  return out;
}

TEST(RealCurveKernels, FieldMultiplyMatchesWideModulo) {
  const std::initializer_list<std::uint64_t> edges = {
      0, 1, kP - 1, kP, kP + 1, kQ - 1, kQ, 1ULL << 59, 1ULL << 61,
      (1ULL << 61) - 1, 1ULL << 63, ~0ULL - 1, ~0ULL};
  for (std::uint64_t a : edges) {
    for (std::uint64_t b : edges) {
      ASSERT_EQ(mul(a, b), mod_mul(a, b, kP)) << a << " * " << b;
      ASSERT_EQ(q_mul(a, b), mod_mul(a, b, kQ)) << a << " * " << b;
    }
  }
  Rng rng(0x5eed);
  for (int i = 0; i < 1000000; ++i) {
    // Alternate full-width inputs with canonical ones, the common case.
    std::uint64_t a = rng.next();
    std::uint64_t b = rng.next();
    if ((i & 1) != 0) {
      a = reduce(a);
      b = reduce(b);
    }
    ASSERT_EQ(mul(a, b), mod_mul(a, b, kP)) << a << " * " << b;
    ASSERT_EQ(q_mul(a, b), mod_mul(a, b, kQ)) << a << " * " << b;
  }
}

TEST(RealCurveKernels, RawPointsHaveTheClaimedOrders) {
  const RawPoints raw = raw_points();
  EXPECT_EQ(naive_order(raw.order_4q), 4 * kQ);
  EXPECT_EQ(naive_order(raw.order_2q), 2 * kQ);
  EXPECT_EQ(naive_order(raw.order_4), 4u);
  EXPECT_EQ(naive_order(Point{0, 0, false}), 2u);
}

TEST(RealCurveKernels, ScalarMultipliesMatchDoubleAndAdd) {
  const RawPoints raw = raw_points();
  const std::vector<Point> points = {
      kG,           hash_to_point(1), hash_to_point(0xfeed),
      raw.order_4q, raw.order_2q,     raw.order_4,
      Point{},      Point{0, 0, false}};
  std::vector<std::uint64_t> scalars = {0,          1,      2,
                                        3,          4,      kQ - 1,
                                        kQ,         kQ + 1, 2 * kQ - 1,
                                        2 * kQ,     2 * kQ + 1,
                                        4 * kQ - 1, 4 * kQ, ~0ULL - 1,
                                        ~0ULL};
  Rng rng(0x1add);
  for (int i = 0; i < 24; ++i) scalars.push_back(rng.next());
  for (int i = 0; i < 8; ++i) scalars.push_back(rng.below(kQ));
  for (const Point& p : points) {
    for (std::uint64_t k : scalars) {
      const Point want = naive_mul(k, p);
      const Point ladder = scalar_mul(k, p);
      EXPECT_EQ(ladder, want) << "ladder k=" << k << " x=" << p.x;
      // Infinity has one representation, so compress-level bytes agree too.
      if (want.inf) EXPECT_EQ(ladder.x | ladder.y, 0u);
    }
  }
}

TEST(RealCurveKernels, SubgroupCheckMatchesNaiveOrderQ) {
  const RawPoints raw = raw_points();
  std::vector<Point> points = {
      kG,          hash_to_point(7), raw.order_4q,       raw.order_2q,
      raw.order_4, Point{},          Point{0, 0, false}};
  for (std::uint64_t x = 2; points.size() < 80; ++x) {
    if (is_square(add(mul(mul(x, x), x), x))) points.push_back(lift_x(x));
  }
  int in = 0;
  int out = 0;
  for (const Point& p : points) {
    const bool want = naive_mul(kQ, p).inf;
    EXPECT_EQ(in_subgroup(p), want) << "x=" << p.x;
    (want ? in : out) += 1;
  }
  EXPECT_GT(in, 0);
  EXPECT_GT(out, 0);
  // Off-curve points are never members.
  EXPECT_FALSE(in_subgroup(Point{kG.x, add(kG.y, 1), false}));
}

TEST(RealCurveKernels, TablePairingMatchesGenericPairing) {
  const RawPoints raw = raw_points();
  const std::vector<Point> firsts = {
      kG,           scalar_mul(0xabcdef, kG), hash_to_point(3),
      raw.order_4q, raw.order_2q,             raw.order_4,
      Point{},      Point{0, 0, false}};
  const std::vector<Point> seconds = {kG, hash_to_point(11), raw.order_4q,
                                      raw.order_2q, Point{}};
  for (const Point& p : firsts) {
    const PairingTable table(p);
    for (const Point& q : seconds) {
      EXPECT_EQ(table.pairing(q), pairing(p, q))
          << "P.x=" << p.x << " Q.x=" << q.x;
    }
  }
  EXPECT_EQ(generator_table().pairing(hash_to_point(5)),
            pairing(kG, hash_to_point(5)));
  EXPECT_EQ(PairingTable().pairing(kG), fp2_one());
}

TEST(RealCurveKernels, PairingIsSymmetricOnTheSubgroup) {
  // The verifiers evaluate e(G, sigma) and e(pk, H) from tables where the
  // equation reads e(sigma, G) and e(H, pk); this is the identity that
  // makes the swap exact.
  Rng rng(0x5e7);
  std::vector<Point> points = {kG, hash_to_point(1), hash_to_point(2)};
  for (int i = 0; i < 4; ++i) {
    points.push_back(scalar_mul(rng.below(kQ), kG));
  }
  for (const Point& p : points) {
    for (const Point& q : points) {
      EXPECT_EQ(pairing(p, q), pairing(q, p)) << p.x << " " << q.x;
    }
  }
}

// ---------------------------------------------------------------------------
// Compressed encoding: strict decoder edge cases. Every rejected class here
// is an attacker-controlled wire byte pattern — the decoder must refuse it,
// not canonicalize it.
// ---------------------------------------------------------------------------

TEST(RealCurveEncoding, RoundTripsEveryPointShape) {
  for (std::uint64_t k :
       std::initializer_list<std::uint64_t>{1, 2, 3, 977, kQ - 1}) {
    const Point p = scalar_mul(k, kG);
    Point back;
    ASSERT_TRUE(decompress(compress(p), &back)) << "k=" << k;
    EXPECT_EQ(back, p) << "k=" << k;
  }
  // Infinity has exactly one encoding.
  const Point inf;
  Point back;
  EXPECT_EQ(compress(inf), kInfBit);
  ASSERT_TRUE(decompress(kInfBit, &back));
  EXPECT_TRUE(back.inf);
}

TEST(RealCurveEncoding, RejectsNonCanonicalX) {
  Point out;
  // x >= p with valid flag bits: must be rejected, not reduced.
  EXPECT_FALSE(decompress(kP, &out));
  EXPECT_FALSE(decompress(kP + 1, &out));
  EXPECT_FALSE(decompress((1ULL << 61) - 1, &out));
}

TEST(RealCurveEncoding, RejectsReservedAndMalformedInfinityBits) {
  Point out;
  const std::uint64_t good = compress(kG);
  EXPECT_FALSE(decompress(good | (1ULL << 63), &out)) << "reserved bit";
  EXPECT_FALSE(decompress(good | kInfBit, &out)) << "inf bit plus payload";
  EXPECT_FALSE(decompress(kInfBit | 1, &out)) << "non-canonical infinity";
  EXPECT_FALSE(decompress(kInfBit | kSignBit, &out)) << "signed infinity";
  EXPECT_FALSE(decompress(kBadEncoding, &out)) << "poison sentinel decoded";
}

TEST(RealCurveEncoding, RejectsXOffCurve) {
  // Find an x in range whose x^3 + x is a non-residue: no curve point.
  bool tested = false;
  for (std::uint64_t x = 2; x < 100; ++x) {
    if (is_square(add(mul(mul(x, x), x), x))) continue;
    Point out;
    EXPECT_FALSE(decompress(x, &out)) << "x=" << x;
    EXPECT_FALSE(decompress(x | kSignBit, &out)) << "x=" << x;
    tested = true;
    break;
  }
  EXPECT_TRUE(tested);
}

TEST(RealCurveEncoding, SignBitSelectsTheParity) {
  const Point p = scalar_mul(7, kG);
  const Point n = point_neg(p);
  EXPECT_NE(compress(p), compress(n));
  Point back_p, back_n;
  ASSERT_TRUE(decompress(compress(p), &back_p));
  ASSERT_TRUE(decompress(compress(n), &back_n));
  EXPECT_EQ(back_p, p);
  EXPECT_EQ(back_n, n);
}

// ---------------------------------------------------------------------------
// Known-answer vectors: the exact u64 encodings of derived points. These are
// the real backend's wire bytes; a drift here silently breaks every recorded
// replay file and golden transcript that embeds a real tag.
// ---------------------------------------------------------------------------

void expect_matches_golden(const char* name, const std::string& text) {
  const std::string path = std::string(MEWC_CRYPTO_GOLDEN_DIR) + "/" + name;
  if (std::getenv("MEWC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with MEWC_UPDATE_GOLDEN=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), text)
      << "real-backend encoding drifted from " << path
      << " — every recorded real tag breaks; if deliberate, regenerate "
         "with MEWC_UPDATE_GOLDEN=1";
}

TEST(RealCurveGolden, CurveVectorsMatchCheckedInFixture) {
  std::ostringstream os;
  os << "G " << compress(kG) << "\n";
  for (std::uint64_t k :
       std::initializer_list<std::uint64_t>{2, 3, 1000, kQ - 1}) {
    os << k << "G " << compress(scalar_mul(k, kG)) << "\n";
  }
  for (std::uint64_t h : {0ULL, 1ULL, 0x123456789ULL}) {
    os << "H(" << h << ") " << compress(hash_to_point(h)) << "\n";
  }
  const Fp2 e = pairing(kG, hash_to_point(1));
  os << "e(G,H(1)) " << e.re << " " << e.im << "\n";
  expect_matches_golden("realcurve_v1.txt", os.str());
}

}  // namespace
}  // namespace mewc::rc
