#include "falcon/zpoly.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/check.h"

namespace cgs::falcon {

using bigint::BigInt;
using i128 = __int128;
using u128 = unsigned __int128;

namespace {

BigInt from_i128(i128 v) {
  const bool neg = v < 0;
  const u128 mag = neg ? -static_cast<u128>(v) : static_cast<u128>(v);
  constexpr std::uint64_t kLow63 = (std::uint64_t{1} << 63) - 1;
  const auto hi = static_cast<std::int64_t>(mag >> 63);  // < 2^63 below 2^126
  const auto lo = static_cast<std::int64_t>(mag & kLow63);
  const BigInt r = hi == 0 ? BigInt(lo) : BigInt(hi).shifted_left(63) + BigInt(lo);
  return neg ? -r : r;
}

// Negacyclic schoolbook in machine words. The caller guarantees
// bits(a) + bits(b) + bit_width(m) + 1 <= 126: each of the m products in a
// coefficient is below 2^(bits(a)+bits(b)), so every partial sum stays
// below 2^125 and no __int128 accumulator can overflow.
ZPoly mul_words(const ZPoly& a, const ZPoly& b) {
  const std::size_t m = a.size();
  std::vector<std::int64_t> x(m), y(m);
  for (std::size_t i = 0; i < m; ++i) {
    x[i] = a[i].to_int64();
    y[i] = b[i].to_int64();
  }
  std::vector<i128> acc(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (x[i] == 0) continue;
    const i128 xi = x[i];
    for (std::size_t j = 0; j < m - i; ++j) acc[i + j] += xi * y[j];
    for (std::size_t j = m - i; j < m; ++j) acc[i + j - m] -= xi * y[j];  // x^m = -1
  }
  ZPoly c(m);
  for (std::size_t k = 0; k < m; ++k) c[k] = from_i128(acc[k]);
  return c;
}

}  // namespace

ZPoly zp_mul(const ZPoly& a, const ZPoly& b) {
  const std::size_t m = a.size();
  CGS_CHECK(b.size() == m);
  const int bits_a = zp_max_bits(a);
  const int bits_b = zp_max_bits(b);
  if (bits_a <= 63 && bits_b <= 63 &&
      bits_a + bits_b + std::bit_width(m) + 1 <= 126)
    return mul_words(a, b);
  ZPoly c(m, BigInt(0));
  for (std::size_t i = 0; i < m; ++i) {
    if (a[i].is_zero()) continue;
    for (std::size_t j = 0; j < m; ++j) {
      if (b[j].is_zero()) continue;
      const BigInt prod = a[i] * b[j];
      const std::size_t k = i + j;
      if (k < m)
        c[k] += prod;
      else
        c[k - m] -= prod;  // x^m = -1
    }
  }
  return c;
}

ZPoly zp_add(const ZPoly& a, const ZPoly& b) {
  CGS_CHECK(a.size() == b.size());
  ZPoly c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] + b[i];
  return c;
}

ZPoly zp_sub(const ZPoly& a, const ZPoly& b) {
  CGS_CHECK(a.size() == b.size());
  ZPoly c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

ZPoly zp_conjugate(const ZPoly& f) {
  ZPoly g = f;
  for (std::size_t i = 1; i < g.size(); i += 2) g[i] = -g[i];
  return g;
}

ZPoly zp_field_norm(const ZPoly& f) {
  CGS_CHECK(f.size() >= 2);
  const ZPoly prod = zp_mul(f, zp_conjugate(f));
  ZPoly norm(f.size() / 2);
  for (std::size_t i = 0; i < norm.size(); ++i) {
    // Odd coefficients of f * f(-x) vanish identically.
    CGS_DCHECK(prod[2 * i + 1].is_zero());
    norm[i] = prod[2 * i];
  }
  return norm;
}

ZPoly zp_lift(const ZPoly& f) {
  ZPoly g(2 * f.size(), BigInt(0));
  for (std::size_t i = 0; i < f.size(); ++i) g[2 * i] = f[i];
  return g;
}

int zp_max_bits(const ZPoly& f) {
  int bits = 0;
  for (const BigInt& c : f) bits = std::max(bits, c.bit_length());
  return bits;
}

bool zp_is_zero(const ZPoly& f) {
  return std::all_of(f.begin(), f.end(),
                     [](const BigInt& c) { return c.is_zero(); });
}

}  // namespace cgs::falcon
