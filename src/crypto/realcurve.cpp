#include "crypto/realcurve.hpp"

namespace mewc::rc {

namespace {

/// Branchless word select: mask is 0 or ~0.
[[nodiscard]] constexpr std::uint64_t ct_select(std::uint64_t mask,
                                                std::uint64_t a,
                                                std::uint64_t b) {
  return b ^ (mask & (a ^ b));
}

/// 0 -> ~0, nonzero -> 0, without a branch.
[[nodiscard]] constexpr std::uint64_t is_zero_mask(std::uint64_t v) {
  return ((v | (0 - v)) >> 63) - 1;
}

void ct_swap(std::uint64_t mask, std::uint64_t& a, std::uint64_t& b) {
  const std::uint64_t d = mask & (a ^ b);
  a ^= d;
  b ^= d;
}

/// Signed binary digits of a fixed scalar below 2^63, most significant
/// first, no two adjacent digits nonzero: about a third of them are,
/// against half in plain binary. Such a scalar has at most 64 digits.
struct Naf {
  signed char digit[64] = {};
  int len = 0;
};

[[nodiscard]] constexpr Naf naf_of(std::uint64_t k) {
  MEWC_CHECK_MSG(k >> 63 == 0, "rounding up would carry past bit 63");
  signed char rev[64] = {};
  int n = 0;
  std::uint64_t v = k;
  while (v != 0) {
    signed char d = 0;
    if ((v & 1) != 0) {
      d = (v & 3) == 1 ? 1 : -1;
      v = d == 1 ? v - 1 : v + 1;
    }
    rev[n++] = d;
    v >>= 1;
  }
  Naf out;
  out.len = n;
  for (int i = 0; i < n; ++i) out.digit[i] = rev[n - 1 - i];
  return out;
}

/// q = 2^59 - 2757 has NAF weight 7 against 54 set bits in binary, so the
/// Miller loop and the subgroup check run almost addition-free.
constexpr Naf kQNaf = naf_of(kQ);
/// The cofactor 4: two doublings.
constexpr Naf kCofactorNaf = naf_of(4);

/// Jacobian coordinates (X, Y, Z): x = X/Z^2, y = Y/Z^3; Z == 0 is infinity.
struct Jac {
  std::uint64_t x = 1;
  std::uint64_t y = 1;
  std::uint64_t z = 0;
};

/// Variable-time left-to-right walk computing T = k*P, where `naf` is the
/// NAF of k. It also reports the Miller loop of f_{k,P}: `square()` once per
/// digit after the leading one, and `line(a, b, c)` for every tangent and
/// chord, as the value (a*xQ + b) + i*(c*yQ) the line takes at the distorted
/// point phi(Q) = (-xQ, i*yQ), up to a nonzero GF(p) factor. Vertical lines
/// take GF(p) values at phi(Q) and are not reported (see pairing). Callers
/// that only want T pass empty callbacks; the line arithmetic then
/// compiles away.
template <typename Square, typename LineFn>
[[nodiscard]] Jac naf_walk(const Naf& naf, Point p, Square&& square,
                           LineFn&& line) {
  if (p.inf || naf.len == 0) return Jac{};
  Jac t{p.x, p.y, 1};  // the leading NAF digit is always +1

  const auto dbl = [&] {
    // Tangent at T scaled by 2*Y*Z^3:
    //   (3X^2 + Z^4)(xQ*Z^2 + X) - 2Y^2  +  2*Y*Z^3*yQ * i
    const std::uint64_t z2 = mul(t.z, t.z);
    const std::uint64_t z4 = mul(z2, z2);
    const std::uint64_t xx = mul(t.x, t.x);
    const std::uint64_t m = add(add(add(xx, xx), xx), z4);
    const std::uint64_t y2 = mul(t.y, t.y);
    const std::uint64_t yz3 = mul(t.y, mul(t.z, z2));
    line(mul(m, z2), sub(mul(m, t.x), add(y2, y2)), add(yz3, yz3));
    // dbl-2007-bl for y^2 = x^3 + x.
    const std::uint64_t yyyy = mul(y2, y2);
    const std::uint64_t xyy = add(t.x, y2);
    std::uint64_t s = sub(sub(mul(xyy, xyy), xx), yyyy);
    s = add(s, s);
    const std::uint64_t x3 = sub(mul(m, m), add(s, s));
    std::uint64_t y8 = add(yyyy, yyyy);
    y8 = add(y8, y8);
    y8 = add(y8, y8);
    const std::uint64_t y3 = sub(mul(m, sub(s, x3)), y8);
    const std::uint64_t yz = add(t.y, t.z);
    t = Jac{x3, y3, sub(sub(mul(yz, yz), y2), z2)};
  };

  for (int i = 1; i < naf.len; ++i) {
    square();
    if (t.z != 0) {
      if (t.y == 0) {
        t.z = 0;  // vertical tangent: 2T is infinity
      } else {
        dbl();
      }
    }
    const signed char d = naf.digit[i];
    if (d == 0) continue;
    const std::uint64_t px = p.x;
    const std::uint64_t py = d == 1 ? p.y : neg(p.y);
    if (t.z == 0) {
      t = Jac{px, py, 1};
      continue;
    }
    const std::uint64_t z2 = mul(t.z, t.z);
    const std::uint64_t u = sub(mul(px, z2), t.x);            // H
    const std::uint64_t s = sub(mul(py, mul(t.z, z2)), t.y);  // r
    if (u == 0 && s == 0) {
      dbl();  // T == dP: the chord degenerates to the tangent
    } else if (u == 0) {
      t.z = 0;  // T == -dP: vertical chord, T + dP is infinity
    } else {
      // Chord through T and (px, py) scaled by u*Z:
      //   s*(xQ + px) - py*u*Z  +  u*Z*yQ * i
      const std::uint64_t uz = mul(u, t.z);
      line(s, sub(mul(s, px), mul(py, uz)), uz);
      // Mixed addition.
      const std::uint64_t h2 = mul(u, u);
      const std::uint64_t h3 = mul(u, h2);
      const std::uint64_t v = mul(t.x, h2);
      const std::uint64_t x3 = sub(sub(mul(s, s), h3), add(v, v));
      const std::uint64_t y3 = sub(mul(s, sub(v, x3)), mul(t.y, h3));
      t = Jac{x3, y3, uz};
    }
  }
  return t;
}

[[nodiscard]] Jac naf_mul(const Naf& naf, Point p) {
  return naf_walk(naf, p, [] {},
                  [](std::uint64_t, std::uint64_t, std::uint64_t) {});
}

[[nodiscard]] Point to_affine(const Jac& p) {
  if (p.z == 0) return Point{};
  const std::uint64_t zi = inv(p.z);
  const std::uint64_t zi2 = mul(zi, zi);
  return Point{mul(p.x, zi2), mul(p.y, mul(zi2, zi)), false};
}

/// Final exponentiation by (p^2 - 1)/q = 4(p - 1): f^(p-1) is
/// conj(f) * f^-1 (Frobenius is conjugation), then square twice.
[[nodiscard]] Fp2 final_exp(Fp2 f) {
  const Fp2 g = fp2_mul(fp2_conj(f), fp2_inv(f));
  return fp2_sq(fp2_sq(g));
}

}  // namespace

bool on_curve(Point p) {
  if (p.inf) return true;
  if (p.x >= kP || p.y >= kP) return false;
  const std::uint64_t rhs = add(mul(mul(p.x, p.x), p.x), p.x);
  return mul(p.y, p.y) == rhs;
}

Point point_neg(Point p) {
  if (p.inf) return p;
  return Point{p.x, neg(p.y), false};
}

Point point_dbl(Point p) {
  if (p.inf || p.y == 0) return Point{};
  const std::uint64_t lam =
      mul(add(mul(3, mul(p.x, p.x)), 1), inv(add(p.y, p.y)));
  const std::uint64_t x3 = sub(mul(lam, lam), add(p.x, p.x));
  return Point{x3, sub(mul(lam, sub(p.x, x3)), p.y), false};
}

Point point_add(Point p, Point q) {
  if (p.inf) return q;
  if (q.inf) return p;
  if (p.x == q.x) {
    if (add(p.y, q.y) == 0) return Point{};  // q == -p
    return point_dbl(p);
  }
  const std::uint64_t lam = mul(sub(q.y, p.y), inv(sub(q.x, p.x)));
  const std::uint64_t x3 = sub(sub(mul(lam, lam), p.x), q.x);
  return Point{x3, sub(mul(lam, sub(p.x, x3)), p.y), false};
}

Point scalar_mul(std::uint64_t k, Point p) {
  if (p.inf) return p;
  if (p.x == 0) {
    // (0, 0), the one point of order 2: kP is P for odd k, else infinity.
    // The x-only ladder cannot use it as its difference point.
    return Point{0, 0, (k & 1) == 0};
  }
  // Montgomery ladder on x only: R0 = (x0 : z0), R1 = (x1 : z1), with
  // R1 - R0 = +-P throughout. Each step maps (R0, R1) to (2R0, R0 + R1)
  // after a masked swap, so the operation trace never depends on k.
  const std::uint64_t xp = p.x;
  std::uint64_t x0 = 1;
  std::uint64_t z0 = 0;  // infinity
  std::uint64_t x1 = xp;
  std::uint64_t z1 = 1;
  std::uint64_t swapped = 0;
  for (int i = 63; i >= 0; --i) {
    const std::uint64_t bit = (k >> i) & 1;
    const std::uint64_t mask = 0 - (swapped ^ bit);
    ct_swap(mask, x0, x1);
    ct_swap(mask, z0, z1);
    swapped = bit;
    const std::uint64_t a = add(x0, z0);
    const std::uint64_t b = sub(x0, z0);
    const std::uint64_t da = mul(sub(x1, z1), a);
    const std::uint64_t cb = mul(add(x1, z1), b);
    const std::uint64_t sum = add(da, cb);
    const std::uint64_t diff = sub(da, cb);
    x1 = mul(sum, sum);
    z1 = mul(xp, mul(diff, diff));
    // Doubling with (A + 2)/4 = 1/2, scaled by 2:
    //   x(2R) = 2*AA*BB / ((AA - BB)(AA + BB)).
    const std::uint64_t aa = mul(a, a);
    const std::uint64_t bb = mul(b, b);
    const std::uint64_t aabb = mul(aa, bb);
    x0 = add(aabb, aabb);
    z0 = mul(sub(aa, bb), add(aa, bb));
  }
  ct_swap(0 - swapped, x0, x1);
  ct_swap(0 - swapped, z0, z1);
  // Now (x0 : z0) = x(kP) and (x1 : z1) = x((k+1)P). Okeya-Sakurai y-recovery
  // with A = 0, B = 1: kP = (X/Z, Y/Z) with
  //   X = w*x0,  Z = w*z0,  w = 2*yP*z0*z1,
  //   Y = (xP*x0 + z0)(x0 + xP*z0)*z1 - (x0 - xP*z0)^2 * x1.
  const std::uint64_t xz = mul(xp, z0);
  const std::uint64_t dx = sub(x0, xz);
  const std::uint64_t y = sub(mul(mul(add(mul(xp, x0), z0), add(x0, xz)), z1),
                              mul(mul(dx, dx), x1));
  const std::uint64_t w = mul(add(p.y, p.y), mul(z0, z1));
  // z0 == 0: kP is infinity. z1 == 0: (k+1)P is infinity, so kP = -P. Both
  // zero Z below; substitute 1 so the one inversion always has an input.
  const std::uint64_t at_inf = is_zero_mask(z0);
  const std::uint64_t at_neg = is_zero_mask(z1) & ~at_inf;
  const std::uint64_t zi = inv(ct_select(at_inf | at_neg, 1, mul(w, z0)));
  const std::uint64_t wzi = mul(w, zi);
  Point out;
  out.x = ct_select(at_inf, 0, ct_select(at_neg, xp, mul(x0, wzi)));
  out.y = ct_select(at_inf, 0, ct_select(at_neg, neg(p.y), mul(y, zi)));
  out.inf = at_inf != 0;
  return out;
}

bool in_subgroup(Point p) {
  if (p.inf) return true;
  if (!on_curve(p)) return false;
  return naf_mul(kQNaf, p).z == 0;
}

std::uint64_t compress(Point p) {
  if (p.inf) return kInfBit;
  MEWC_CHECK_MSG(p.x < kP && p.y < kP, "non-canonical point");
  return p.x | ((p.y & 1) << 61);
}

bool decompress(std::uint64_t enc, Point* out) {
  if ((enc >> 63) != 0) return false;  // reserved bit
  if (enc & kInfBit) {
    if (enc != kInfBit) return false;  // canonical infinity has no payload
    *out = Point{};
    return true;
  }
  const std::uint64_t x = enc & (kSignBit - 1);
  const std::uint64_t parity = (enc >> 61) & 1;
  if (x >= kP) return false;
  const std::uint64_t rhs = add(mul(mul(x, x), x), x);
  const std::uint64_t y0 = sqrt(rhs);
  if (mul(y0, y0) != rhs) return false;  // x is not on the curve
  std::uint64_t y = y0;
  if ((y & 1) != parity) y = neg(y);
  if ((y & 1) != parity) return false;  // y == 0 with parity bit set
  *out = Point{x, y, false};
  return true;
}

Point hash_to_point(std::uint64_t h) {
  std::uint64_t x = reduce(h);
  for (;;) {
    const std::uint64_t rhs = add(mul(mul(x, x), x), x);
    const std::uint64_t y = sqrt(rhs);
    if (mul(y, y) == rhs) {
      // Clear the cofactor so the result lands in the order-q subgroup:
      // two Jacobian doublings and one inversion.
      const Point p4 = to_affine(naf_mul(kCofactorNaf, Point{x, y, false}));
      if (!p4.inf) return p4;
    }
    x = add(x, 1);
  }
}

Fp2 pairing(Point p, Point q) {
  if (p.inf || q.inf) return fp2_one();
  // Miller loop for f_{q,P} evaluated at phi(Q) = (-xQ, i*yQ), with three
  // structural savings compounding:
  //  1. Denominator elimination: vertical lines evaluate at phi(Q) to
  //     GF(p) values, and every GF(p) value is killed by the (p - 1) factor
  //     of the final exponentiation — verticals are skipped outright.
  //  2. The same argument makes line values scale-invariant under any
  //     nonzero GF(p) factor, so the accumulator point T stays in Jacobian
  //     coordinates and lines are evaluated cleared of denominators: the
  //     whole loop runs without a single field inversion.
  //  3. The loop walks the NAF of q (weight 7), not its binary expansion.
  // A chord/tangent line's imaginary part is yQ (times a nonzero scale),
  // nonzero for affine Q, so line values are never zero mid-loop.
  Fp2 f = fp2_one();
  (void)naf_walk(
      kQNaf, p, [&] { f = fp2_sq(f); },
      [&](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
        f = fp2_mul(f, Fp2{add(mul(a, q.x), b), mul(c, q.y)});
      });
  return final_exp(f);
}

PairingTable::PairingTable(Point p) {
  (void)naf_walk(
      kQNaf, p, [&] { lines_per_step_.push_back(0); },
      [&](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
        ++lines_per_step_.back();
        lines_.push_back(Line{a, b, c});
      });
}

Fp2 PairingTable::pairing(Point q) const {
  if (q.inf) return fp2_one();
  Fp2 f = fp2_one();
  const Line* line = lines_.data();
  for (std::uint8_t n : lines_per_step_) {
    f = fp2_sq(f);
    for (; n != 0; --n, ++line) {
      f = fp2_mul(f, Fp2{add(mul(line->a, q.x), line->b), mul(line->c, q.y)});
    }
  }
  return final_exp(f);
}

const PairingTable& generator_table() {
  static const PairingTable table(kG);
  return table;
}

}  // namespace mewc::rc
