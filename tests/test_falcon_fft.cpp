// Negacyclic FFT (Hermitian-packed) and NTT: roundtrips, agreement with
// schoolbook ring multiplication, split/merge identities, evaluation
// points, adjoint semantics.

#include <gtest/gtest.h>

#include <random>

#include "falcon/fft.h"
#include "falcon/ntt.h"

namespace cgs::falcon {
namespace {

std::vector<double> random_poly(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> d(-10.0, 10.0);
  std::vector<double> p(n);
  for (auto& c : p) c = d(gen);
  return p;
}

// c = a*b mod x^n + 1 over the reals.
std::vector<double> negacyclic_schoolbook(const std::vector<double>& a,
                                          const std::vector<double>& b) {
  const std::size_t n = a.size();
  std::vector<double> c(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double p = a[i] * b[j];
      if (i + j < n)
        c[i + j] += p;
      else
        c[i + j - n] -= p;
    }
  return c;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, RoundTrip) {
  const auto p = random_poly(GetParam(), 1);
  const auto back = ifft(fft(p), p.size());
  ASSERT_EQ(back.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(back[i], p[i], 1e-9);
}

TEST_P(FftSizes, MulMatchesSchoolbook) {
  const auto a = random_poly(GetParam(), 2);
  const auto b = random_poly(GetParam(), 3);
  const auto via_fft = ifft(mul_fft(fft(a), fft(b)), a.size());
  const auto direct = negacyclic_schoolbook(a, b);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(via_fft[i], direct[i], 1e-7) << i;
}

TEST_P(FftSizes, SplitMergeRoundTrip) {
  if (GetParam() < 2) GTEST_SKIP();
  const CVec f = fft(random_poly(GetParam(), 4));
  CVec f0, f1;
  split_fft(f, f0, f1);
  CVec back(f.size());
  merge_fft(f0, f1, back);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(back[i].real(), f[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), f[i].imag(), 1e-9);
  }
}

TEST_P(FftSizes, SplitExtractsEvenOddCoefficients) {
  if (GetParam() < 2) GTEST_SKIP();
  const auto p = random_poly(GetParam(), 5);
  CVec f0, f1;
  split_fft(fft(p), f0, f1);
  const auto even = ifft(f0, p.size() / 2);
  const auto odd = ifft(f1, p.size() / 2);
  for (std::size_t i = 0; i < p.size() / 2; ++i) {
    EXPECT_NEAR(even[i], p[2 * i], 1e-9);
    EXPECT_NEAR(odd[i], p[2 * i + 1], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes,
                         ::testing::Values(1, 2, 4, 16, 64, 256, 1024));

TEST(Fft, EvaluatesAtOddRoots) {
  // f(x) = x: the packed spectrum must be exactly the roots of the upper
  // half plane, in order.
  std::vector<double> x = {0, 1, 0, 0};
  const CVec s = fft(x);
  ASSERT_EQ(s.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    const cplx z = root_of_unity(4, k);
    EXPECT_NEAR(s[k].real(), z.real(), 1e-12);
    EXPECT_NEAR(s[k].imag(), z.imag(), 1e-12);
  }
}

TEST(Fft, PackedHalfDeterminesTheConjugateHalf) {
  // Direct evaluation at all m roots: slot k holds f(zeta_k), and the
  // unstored f(zeta_{m-1-k}) is its conjugate.
  const std::size_t m = 32;
  const auto p = random_poly(m, 7);
  const CVec s = fft(p);
  ASSERT_EQ(s.size(), m / 2);
  const auto eval = [&p](cplx z) {
    cplx acc = 0.0;
    for (std::size_t i = p.size(); i-- > 0;) acc = acc * z + p[i];
    return acc;
  };
  for (std::size_t k = 0; k < m / 2; ++k) {
    const cplx at_k = eval(root_of_unity(m, k));
    const cplx mirror = eval(root_of_unity(m, m - 1 - k));
    EXPECT_NEAR(std::abs(s[k] - at_k), 0.0, 1e-9) << k;
    EXPECT_NEAR(std::abs(std::conj(s[k]) - mirror), 0.0, 1e-9) << k;
  }
}

TEST(Fft, AdjointIsConjugateTranspose) {
  // <a, b> = (1/n) sum a_k conj(b_k); adj in FFT is plain conjugation and
  // corresponds to x -> x^{-1} on coefficients: check a * adj(a) has real
  // non-negative spectrum.
  const auto a = random_poly(32, 6);
  const CVec s = mul_fft(fft(a), adj_fft(fft(a)));
  for (const cplx& v : s) {
    EXPECT_NEAR(v.imag(), 0.0, 1e-9);
    EXPECT_GE(v.real(), -1e-9);
  }
}

TEST(Ntt, ForwardInverseRoundTrip) {
  for (std::size_t n : {4u, 16u, 256u, 1024u}) {
    const NttContext ntt(n);
    std::mt19937_64 gen(n);
    std::vector<std::uint32_t> a(n);
    for (auto& v : a) v = static_cast<std::uint32_t>(gen() % kQ);
    auto b = a;
    ntt.forward(b);
    ntt.inverse(b);
    EXPECT_EQ(a, b) << n;
  }
}

TEST(Ntt, FastBitReversedPathMatchesReference) {
  // The Shoup fast path (forward_br / pointwise_shoup / inverse_br, the
  // VerificationService hot loop) must compute exactly the reference
  // multiply(), bit-reversed internal ordering and all.
  for (std::size_t n : {4u, 16u, 64u, 512u, 1024u}) {
    const NttContext ntt(n);
    std::mt19937_64 gen(n + 1);
    std::vector<std::uint32_t> a(n), b(n);
    for (auto& v : a) v = static_cast<std::uint32_t>(gen() % kQ);
    for (auto& v : b) v = static_cast<std::uint32_t>(gen() % kQ);

    // Round trip alone.
    auto r = a;
    ntt.forward_br(r);
    ntt.inverse_br(r);
    EXPECT_EQ(r, a) << n;

    // Full product against the reference transform.
    auto x = a, w = b;
    ntt.forward_br(x);
    ntt.forward_br(w);
    std::vector<std::uint32_t> ws(n);
    for (std::size_t i = 0; i < n; ++i) ws[i] = NttContext::shoup_factor(w[i]);
    ntt.pointwise_shoup(x, w, ws);
    ntt.inverse_br(x);
    EXPECT_EQ(x, ntt.multiply(a, b)) << n;
  }
}

TEST(Ntt, MultiplyMatchesSchoolbookModQ) {
  const std::size_t n = 32;
  const NttContext ntt(n);
  std::mt19937_64 gen(5);
  std::vector<std::uint32_t> a(n), b(n);
  for (auto& v : a) v = static_cast<std::uint32_t>(gen() % kQ);
  for (auto& v : b) v = static_cast<std::uint32_t>(gen() % kQ);
  const auto c = ntt.multiply(a, b);
  // Schoolbook negacyclic mod q.
  std::vector<std::int64_t> ref(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const std::int64_t p = static_cast<std::int64_t>(a[i]) * b[j] % kQ;
      if (i + j < n)
        ref[i + j] = (ref[i + j] + p) % kQ;
      else
        ref[i + j - n] = (ref[i + j - n] - p % kQ + kQ) % kQ;
    }
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(c[i], static_cast<std::uint32_t>(ref[i])) << i;
}

TEST(Ntt, InvertRecoversIdentity) {
  const std::size_t n = 64;
  const NttContext ntt(n);
  std::mt19937_64 gen(9);
  std::vector<std::uint32_t> a(n);
  for (auto& v : a) v = static_cast<std::uint32_t>(gen() % kQ);
  std::vector<std::uint32_t> inv;
  if (!ntt.try_invert(a, inv)) GTEST_SKIP() << "non-invertible draw";
  const auto prod = ntt.multiply(a, inv);
  EXPECT_EQ(prod[0], 1u);
  for (std::size_t i = 1; i < n; ++i) EXPECT_EQ(prod[i], 0u);
}

TEST(Ntt, NonInvertibleDetected) {
  const std::size_t n = 16;
  const NttContext ntt(n);
  std::vector<std::uint32_t> zero(n, 0);
  std::vector<std::uint32_t> inv;
  EXPECT_FALSE(ntt.try_invert(zero, inv));
}

TEST(Ntt, CenterModQ) {
  EXPECT_EQ(center_mod_q(0), 0);
  EXPECT_EQ(center_mod_q(1), 1);
  EXPECT_EQ(center_mod_q(kQ - 1), -1);
  EXPECT_EQ(center_mod_q(6144), 6144);
  EXPECT_EQ(center_mod_q(6145), -6144);
  EXPECT_EQ(to_mod_q(-1), kQ - 1);
  EXPECT_EQ(to_mod_q(-12290), kQ - 1);
}

}  // namespace
}  // namespace cgs::falcon
