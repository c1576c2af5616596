#pragma once
// Exact polynomial arithmetic over Z[x]/(x^m+1) with BigInt coefficients —
// the language NTRUSolve speaks. Sizes here are small (m halves every
// recursion level) but coefficients grow to resultant scale, so products
// are schoolbook over BigInt, or over int64/__int128 when the operands are
// small enough that no coefficient can reach 2^125.

#include <vector>

#include "bigint/bigint.h"

namespace cgs::falcon {

using ZPoly = std::vector<bigint::BigInt>;

/// c = a * b mod x^m+1 (negacyclic schoolbook; machine words when
/// bits(a) + bits(b) + bit_width(m) + 1 <= 126).
ZPoly zp_mul(const ZPoly& a, const ZPoly& b);

ZPoly zp_add(const ZPoly& a, const ZPoly& b);
ZPoly zp_sub(const ZPoly& a, const ZPoly& b);

/// f(-x): negate odd coefficients (the Galois conjugate of the tower).
ZPoly zp_conjugate(const ZPoly& f);

/// Field norm N(f) down one tower level: N(f)(x^2) = f(x) * f(-x); returns
/// the half-size polynomial of even coefficients.
ZPoly zp_field_norm(const ZPoly& f);

/// F'(x^2): spread a half-size polynomial back to full size (odd
/// coefficients zero).
ZPoly zp_lift(const ZPoly& f);

/// Largest coefficient magnitude in bits.
int zp_max_bits(const ZPoly& f);

/// All coefficients zero?
bool zp_is_zero(const ZPoly& f);

}  // namespace cgs::falcon
