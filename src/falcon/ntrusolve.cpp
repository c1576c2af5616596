#include "falcon/ntrusolve.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "falcon/fft.h"

namespace cgs::falcon {

using bigint::BigInt;

namespace {

// Top-53-bit double image of a ZPoly: coeff >> (scale_bits - 53), where
// scale_bits >= 53 is shared across the whole polynomial.
std::vector<double> zp_to_doubles(const ZPoly& p, int scale_bits) {
  std::vector<double> out(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    int e = 0;
    const double m = p[i].to_double_scaled(e);  // p[i] ~ m * 2^e
    out[i] = std::ldexp(m, e - (scale_bits - 53));
  }
  return out;
}

}  // namespace

void reduce_against(const ZPoly& f, const ZPoly& g, ZPoly& F, ZPoly& G) {
  const std::size_t m = f.size();
  CGS_CHECK(g.size() == m && F.size() == m && G.size() == m);

  const int size = std::max({53, zp_max_bits(f), zp_max_bits(g)});
  const CVec fa = fft(zp_to_doubles(f, size));
  const CVec ga = fft(zp_to_doubles(g, size));
  // den = f f* + g g* (real, positive for f,g not both zero anywhere).
  const CVec den = add_fft(mul_fft(fa, adj_fft(fa)), mul_fft(ga, adj_fft(ga)));

  for (int bits = std::max(zp_max_bits(F), zp_max_bits(G));;) {
    // F, G are imaged at 2^-(scale-53) and f, g at 2^-(size-53), so k_real
    // is the true quotient scaled by 2^-shift.
    const int scale = std::max(bits, size);
    int shift = scale - size;
    const CVec Fa = fft(zp_to_doubles(F, scale));
    const CVec Ga = fft(zp_to_doubles(G, scale));
    const CVec num =
        add_fft(mul_fft(Fa, adj_fft(fa)), mul_fft(Ga, adj_fft(ga)));
    std::vector<double> k_real = ifft(div_fft(num, den), m);

    // While (F, G) is longer than (f, g), k_real itself is O(1): rounding
    // it would take a bit or two per round, or nothing. Scale it up to
    // about 30 bits and subtract k (f, g) 2^shift with the remaining shift.
    double k_max = 0.0;
    for (const double v : k_real) k_max = std::max(k_max, std::fabs(v));
    if (shift > 0 && k_max > 0.0) {
      int exponent = 0;
      std::frexp(k_max, &exponent);  // k_max < 2^exponent
      const int e = std::clamp(30 - exponent, 0, shift);
      for (double& v : k_real) v = std::ldexp(v, e);
      shift -= e;
    }

    ZPoly k(m, BigInt(0));
    bool any = false;
    for (std::size_t i = 0; i < m; ++i) {
      const double r = std::nearbyint(k_real[i]);
      if (r != 0.0) {
        CGS_CHECK_MSG(std::fabs(r) < 9e18, "Babai step out of int64 range");
        k[i] = BigInt(static_cast<std::int64_t>(r));
        any = true;
      }
    }
    if (!any) return;

    const ZPoly fk = zp_mul(f, k);
    const ZPoly gk = zp_mul(g, k);
    for (std::size_t i = 0; i < m; ++i) {
      F[i] -= fk[i].shifted_left(shift);
      G[i] -= gk[i].shifted_left(shift);
    }
    // Done once a round no longer shortens (F, G): the quotient has been
    // taken to the last bit the double steering resolves.
    const int next = std::max(zp_max_bits(F), zp_max_bits(G));
    if (next >= bits) return;
    bits = next;
  }
}

namespace {

std::optional<NtruSolution> solve_rec(const ZPoly& f, const ZPoly& g,
                                      std::int64_t q) {
  const std::size_t m = f.size();
  if (m == 1) {
    BigInt u, v;
    const BigInt d = BigInt::xgcd(f[0], g[0], u, v);
    if (!(d == BigInt(1))) return std::nullopt;
    // u f + v g = 1  =>  f (u q) - g (-v q) = q.
    NtruSolution s;
    s.f_cap = {(-v) * BigInt(q)};
    s.g_cap = {u * BigInt(q)};
    reduce_against(f, g, s.f_cap, s.g_cap);
    return s;
  }

  const ZPoly fn = zp_field_norm(f);
  const ZPoly gn = zp_field_norm(g);
  auto sub = solve_rec(fn, gn, q);
  if (!sub) return std::nullopt;

  // Lift: F = F'(x^2) g(-x), G = G'(x^2) f(-x) gives f G - g F = q because
  // f(x) f(-x) = N(f)(x^2).
  NtruSolution s;
  s.f_cap = zp_mul(zp_lift(sub->f_cap), zp_conjugate(g));
  s.g_cap = zp_mul(zp_lift(sub->g_cap), zp_conjugate(f));
  reduce_against(f, g, s.f_cap, s.g_cap);
  return s;
}

}  // namespace

std::optional<NtruSolution> ntru_solve(const ZPoly& f, const ZPoly& g,
                                       std::int64_t q) {
  CGS_CHECK(!f.empty() && f.size() == g.size());
  CGS_CHECK((f.size() & (f.size() - 1)) == 0);
  auto s = solve_rec(f, g, q);
  if (!s) return std::nullopt;
  // Exact verification of the NTRU equation.
  const ZPoly lhs = zp_sub(zp_mul(f, s->g_cap), zp_mul(g, s->f_cap));
  if (!(lhs[0] == BigInt(q))) return std::nullopt;
  for (std::size_t i = 1; i < lhs.size(); ++i)
    if (!lhs[i].is_zero()) return std::nullopt;
  return s;
}

}  // namespace cgs::falcon
