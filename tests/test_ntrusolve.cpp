// NTRUSolve: the exact NTRU equation f G - g F = q across ring sizes,
// Babai reduction behaviour, the machine-word multiply path, and keygen
// integration.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "falcon/keygen.h"
#include "falcon/ntrusolve.h"
#include "prng/chacha20.h"

namespace cgs::falcon {
namespace {

using bigint::BigInt;

ZPoly random_small(std::size_t n, std::mt19937_64& gen, int bound) {
  std::uniform_int_distribution<int> d(-bound, bound);
  ZPoly p(n);
  for (auto& c : p) c = BigInt(d(gen));
  return p;
}

void expect_ntru_equation(const ZPoly& f, const ZPoly& g, const ZPoly& F,
                          const ZPoly& G, std::int64_t q) {
  const ZPoly lhs = zp_sub(zp_mul(f, G), zp_mul(g, F));
  EXPECT_EQ(lhs[0].compare(BigInt(q)), 0);
  for (std::size_t i = 1; i < lhs.size(); ++i)
    EXPECT_TRUE(lhs[i].is_zero()) << i;
}

TEST(ZPoly, MulNegacyclicWrap) {
  // (x^3) * (x) = x^4 = -1 in Z[x]/(x^4+1).
  ZPoly a(4, BigInt(0)), b(4, BigInt(0));
  a[3] = BigInt(1);
  b[1] = BigInt(1);
  const ZPoly c = zp_mul(a, b);
  EXPECT_EQ(c[0].to_int64(), -1);
  for (int i = 1; i < 4; ++i) EXPECT_TRUE(c[static_cast<std::size_t>(i)].is_zero());
}

// Plain BigInt schoolbook reference for coefficient k of a*b mod x^m+1.
BigInt reference_coeff(const ZPoly& a, const ZPoly& b, std::size_t k) {
  const std::size_t m = a.size();
  BigInt c(0);
  for (std::size_t i = 0; i < m; ++i) {
    if (i <= k)
      c += a[i] * b[k - i];
    else
      c -= a[i] * b[m + k - i];  // x^m = -1
  }
  return c;
}

// Coefficients of exactly `bits` bits in magnitude (top bit set), random
// sign; coefficient 0 is pinned to the full 2^bits - 1 so the polynomial's
// max bit count is exactly `bits`.
ZPoly random_bits(std::size_t m, int bits, std::mt19937_64& gen) {
  ZPoly p(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t top = std::uint64_t{1} << (bits - 1);
    const std::uint64_t mag =
        i == 0 ? top | (top - 1) : top | (gen() & (top - 1));
    const auto v = static_cast<std::int64_t>(mag);
    p[i] = BigInt(gen() & 1 ? -v : v);
  }
  return p;
}

void expect_mul_matches_reference(const ZPoly& a, const ZPoly& b) {
  const ZPoly c = zp_mul(a, b);
  const std::size_t m = a.size();
  // Full check up to m = 64; a spread of coefficients (both wrap ends
  // included) at larger m keeps the BigInt reference cheap.
  const std::size_t stride = m <= 64 ? 1 : 37;
  for (std::size_t k = 0; k < m; k += stride)
    EXPECT_EQ(c[k].compare(reference_coeff(a, b, k)), 0) << "m=" << m << " k=" << k;
  EXPECT_EQ(c[m - 1].compare(reference_coeff(a, b, m - 1)), 0) << "m=" << m;
}

TEST(ZPoly, MulWordPathMatchesBigIntSchoolbook) {
  // zp_mul multiplies in int64/__int128 when
  // bits(a) + bits(b) + bit_width(m) + 1 <= 126. Cover small operands,
  // operands exactly at that bound, one bit over it (BigInt path), and the
  // mixed 1-bit x 62-bit shape, at each ring size. The over-bound case is
  // left out at m = 1024, where the BigInt path alone takes seconds in
  // sanitizer builds.
  std::mt19937_64 gen(17);
  for (const std::size_t m : {1u, 2u, 64u, 1024u}) {
    const int budget = 125 - std::bit_width(m);  // bits(a) + bits(b) at the bound
    const int lo = std::min(62, budget / 2);
    const int hi = budget - lo;
    std::vector<std::pair<int, int>> shapes = {{9, 13}, {lo, hi}, {1, 62}, {62, 1}};
    if (m <= 64) shapes.emplace_back(lo, hi + 1);
    for (const auto& [ba, bb] : shapes) {
      SCOPED_TRACE(testing::Message() << "m=" << m << " bits " << ba << "x" << bb);
      const ZPoly a = random_bits(m, ba, gen);
      const ZPoly b = random_bits(m, bb, gen);
      EXPECT_EQ(zp_max_bits(a), ba);
      EXPECT_EQ(zp_max_bits(b), bb);
      expect_mul_matches_reference(a, b);
    }
  }
}

TEST(ZPoly, MulWordPathConvertsSumsNearTwoTo125) {
  // m = 1023 (bit_width 10) admits 57 x 58-bit operands; aligning every
  // product's sign drives coefficient 0 to -1023 (2^57-1)(2^58-1), just
  // under 2^125 in magnitude, which the __int128 accumulator must hand back
  // to BigInt exactly. Negating a flips it to just under +2^125.
  const std::size_t m = 1023;
  const auto a_mag = static_cast<std::int64_t>((std::uint64_t{1} << 57) - 1);
  const auto b_mag = static_cast<std::int64_t>((std::uint64_t{1} << 58) - 1);
  ZPoly a(m, BigInt(a_mag)), b(m, BigInt(b_mag));
  b[0] = BigInt(-b_mag);  // c0 = a0 b0 - sum_{i>0} a_i b_{m-i}
  for (const bool negate : {false, true}) {
    if (negate)
      for (auto& c : a) c = -c;
    const ZPoly c = zp_mul(a, b);
    EXPECT_EQ(c[0].bit_length(), 125);
    EXPECT_EQ(c[0].is_negative(), !negate);
    expect_mul_matches_reference(a, b);
  }
}

TEST(ZPoly, FieldNormIsMultiplicative) {
  std::mt19937_64 gen(3);
  const ZPoly f = random_small(8, gen, 20);
  const ZPoly g = random_small(8, gen, 20);
  const ZPoly nf = zp_field_norm(f);
  const ZPoly ng = zp_field_norm(g);
  const ZPoly nfg = zp_field_norm(zp_mul(f, g));
  const ZPoly prod = zp_mul(nf, ng);
  for (std::size_t i = 0; i < nfg.size(); ++i)
    EXPECT_EQ(nfg[i].compare(prod[i]), 0) << i;
}

TEST(ZPoly, LiftConjugateIdentity) {
  // f(x) f(-x) == N(f)(x^2).
  std::mt19937_64 gen(4);
  const ZPoly f = random_small(16, gen, 50);
  const ZPoly lhs = zp_mul(f, zp_conjugate(f));
  const ZPoly rhs = zp_lift(zp_field_norm(f));
  for (std::size_t i = 0; i < lhs.size(); ++i)
    EXPECT_EQ(lhs[i].compare(rhs[i]), 0) << i;
}

class NtruSolveSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NtruSolveSizes, SolvesAndVerifies) {
  std::mt19937_64 gen(GetParam() * 7 + 1);
  // One solve per size from N = 256 up keeps the sanitizer job short.
  const int want = GetParam() >= 256 ? 1 : 3;
  int solved = 0;
  for (int attempt = 0; attempt < 12 && solved < want; ++attempt) {
    const ZPoly f = random_small(GetParam(), gen, 6);
    const ZPoly g = random_small(GetParam(), gen, 6);
    const auto s = ntru_solve(f, g, 12289);
    if (!s) continue;  // gcd != 1; fine
    expect_ntru_equation(f, g, s->f_cap, s->g_cap, 12289);
    ++solved;
  }
  EXPECT_GE(solved, 1) << "no solvable (f,g) found in 12 draws";
}

INSTANTIATE_TEST_SUITE_P(Pow2, NtruSolveSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024));

TEST(NtruSolve, SolutionsAreShort) {
  // After Babai reduction the returned F,G should be within a small factor
  // of f,g's magnitude — not resultant-sized.
  std::mt19937_64 gen(11);
  for (int attempt = 0; attempt < 10; ++attempt) {
    const ZPoly f = random_small(32, gen, 5);
    const ZPoly g = random_small(32, gen, 5);
    const auto s = ntru_solve(f, g, 12289);
    if (!s) continue;
    EXPECT_LT(zp_max_bits(s->f_cap), 40) << "F not reduced";
    EXPECT_LT(zp_max_bits(s->g_cap), 40) << "G not reduced";
    return;
  }
  GTEST_SKIP() << "no solvable pair drawn";
}

TEST(NtruSolve, ReduceAgainstShrinksInflatedSolution) {
  std::mt19937_64 gen(13);
  const ZPoly f = random_small(16, gen, 5);
  const ZPoly g = random_small(16, gen, 5);
  const auto s = ntru_solve(f, g, 12289);
  if (!s) GTEST_SKIP();
  // Inflate (F,G) by adding a huge multiple of (f,g): reduction must undo it.
  ZPoly F = s->f_cap, G = s->g_cap;
  ZPoly k(16, BigInt(0));
  k[3] = BigInt(987654321).shifted_left(40);
  F = zp_add(F, zp_mul(k, f));
  G = zp_add(G, zp_mul(k, g));
  expect_ntru_equation(f, g, F, G, 12289);  // still a solution
  reduce_against(f, g, F, G);
  expect_ntru_equation(f, g, F, G, 12289);  // reduction preserves it
  EXPECT_LT(zp_max_bits(F), 40);
}

TEST(NtruSolve, ReducesAtEveryTowerLevel) {
  // Field norms of a Falcon-512-shaped (f, g) (sigma ~ 4.05) down the
  // tower: the solution at every level must be about as short as (f, g)
  // there, not resultant-sized.
  std::mt19937_64 gen(512);
  std::normal_distribution<double> d(0.0, 4.05);
  for (int attempt = 0; attempt < 8; ++attempt) {
    ZPoly f(512), g(512);
    for (auto& c : f) c = BigInt(std::llround(d(gen)));
    for (auto& c : g) c = BigInt(std::llround(d(gen)));
    std::vector<std::pair<ZPoly, ZPoly>> levels;  // m = 64, 32, ..., 2
    while (f.size() > 2) {
      f = zp_field_norm(f);
      g = zp_field_norm(g);
      if (f.size() <= 64) levels.emplace_back(f, g);
    }
    if (!ntru_solve(levels.back().first, levels.back().second, 12289))
      continue;  // resultants share a factor; redraw
    for (const auto& [fm, gm] : levels) {
      const auto s = ntru_solve(fm, gm, 12289);
      ASSERT_TRUE(s.has_value()) << "m=" << fm.size();
      const int fg_bits = std::max(zp_max_bits(fm), zp_max_bits(gm));
      const int sol_bits = std::max(zp_max_bits(s->f_cap), zp_max_bits(s->g_cap));
      EXPECT_LE(sol_bits, fg_bits + 16)
          << "m=" << fm.size() << ": |f|,|g| " << fg_bits << " bits";
    }
    return;
  }
  FAIL() << "no solvable (f,g) drawn";
}

TEST(NtruSolve, GcdObstructionReturnsNullopt) {
  // f = g = 2 (constant): gcd of resultants is 2 -> no solution.
  ZPoly f = {BigInt(2)}, g = {BigInt(2)};
  EXPECT_FALSE(ntru_solve(f, g, 12289).has_value());
}

TEST(Keygen, ProducesValidKeysAndEquation) {
  prng::ChaCha20Source rng(2024);
  const auto params = FalconParams::for_degree(64);
  KeygenStats stats;
  const KeyPair kp = keygen(params, rng, &stats);
  EXPECT_EQ(kp.f.size(), 64u);
  expect_ntru_equation(to_zpoly(kp.f), to_zpoly(kp.g), to_zpoly(kp.f_cap),
                       to_zpoly(kp.g_cap), kQ);
  // h f == g mod q.
  const NttContext ntt(64);
  const auto hf = ntt.multiply(kp.h, to_mod_q_poly(kp.f));
  const auto gq = to_mod_q_poly(kp.g);
  EXPECT_EQ(hf, gq);
}

TEST(Keygen, DeterministicGivenSeed) {
  const auto params = FalconParams::for_degree(16);
  prng::ChaCha20Source r1(5), r2(5);
  const KeyPair a = keygen(params, r1);
  const KeyPair b = keygen(params, r2);
  EXPECT_EQ(a.f, b.f);
  EXPECT_EQ(a.g, b.g);
  EXPECT_EQ(a.f_cap, b.f_cap);
  EXPECT_EQ(a.g_cap, b.g_cap);
  EXPECT_EQ(a.h, b.h);
}

// FNV-1a over (n, f, g, F, G, h).
std::uint64_t key_digest(const KeyPair& kp) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint32_t>(kp.f.size()));
  for (const IPoly* p : {&kp.f, &kp.g, &kp.f_cap, &kp.g_cap})
    for (const std::int32_t c : *p) mix(static_cast<std::uint32_t>(c));
  for (const std::uint32_t c : kp.h) mix(c);
  return h;
}

TEST(Keygen, OutputPinnedAcrossSolverRewrite) {
  // Golden digests of keygen output for fixed ChaCha20 seeds. NTRUSolve
  // returns the Babai-reduced (F, G), so how the tower reduces on the way
  // up must not change the keys.
  struct Pin {
    std::size_t n;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {64, 1, 0xde35c60655866286ull},  {64, 2, 0x1813d20b3384b927ull},
      {256, 1, 0x397b070c23ef812cull}, {256, 2, 0xcffcd033962c442full},
      {512, 1, 0x7441a91d57fc694eull}, {512, 2, 0xe7330c88d49886edull},
  };
  for (const Pin& pin : pins) {
    prng::ChaCha20Source rng(pin.seed);
    const KeyPair kp = keygen(FalconParams::for_degree(pin.n), rng);
    EXPECT_EQ(key_digest(kp), pin.digest)
        << "n=" << pin.n << " seed=" << pin.seed << std::hex
        << " digest=0x" << key_digest(kp);
  }
}

}  // namespace
}  // namespace cgs::falcon
