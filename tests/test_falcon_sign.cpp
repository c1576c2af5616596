// Signing and verification end to end, with every base sampler of Table 1,
// plus pinned signature digests, SamplerZ distribution checks, its
// exponential, hash-to-point, and the codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>

#include "cdt/cdt_samplers.h"
#include "ct/batch_sampler.h"
#include "falcon/codec.h"
#include "falcon/sign.h"
#include "falcon/verify.h"
#include "prng/chacha20.h"
#include "prng/splitmix.h"
#include "stats/acceptance.h"

namespace cgs::falcon {
namespace {

struct Fixture {
  gauss::ProbMatrix matrix{gauss::GaussianParams::sigma_2(128)};
  cdt::CdtTable table{matrix};
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

const KeyPair& shared_key() {
  static const KeyPair kp = [] {
    prng::ChaCha20Source rng(321);
    return keygen(FalconParams::for_degree(64), rng);
  }();
  return kp;
}

class SignWithEachSampler : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<IntSampler> make_sampler() {
    auto& f = fixture();
    switch (GetParam()) {
      case 0: return std::make_unique<cdt::CdtByteScanSampler>(f.table);
      case 1: return std::make_unique<cdt::CdtBinarySearchSampler>(f.table);
      case 2: return std::make_unique<cdt::CdtLinearCtSampler>(f.table);
      default:
        return std::make_unique<ct::BufferedSampler>(
            ct::synthesize(f.matrix, {}));
    }
  }
};

TEST_P(SignWithEachSampler, SignVerifyRoundTrip) {
  const KeyPair& kp = shared_key();
  auto base = make_sampler();
  prng::ChaCha20Source rng(777 + GetParam());
  ScalarBlockSource src(*base, rng);
  Signer signer(kp, src);
  Verifier verifier(kp.h, kp.params);
  for (int i = 0; i < 5; ++i) {
    const std::string msg = "message #" + std::to_string(i);
    const Signature sig = signer.sign(msg);
    EXPECT_TRUE(verifier.verify(msg, sig)) << base->name();
    EXPECT_FALSE(verifier.verify(msg + "!", sig)) << base->name();
  }
}

TEST_P(SignWithEachSampler, TamperedSignatureRejected) {
  const KeyPair& kp = shared_key();
  auto base = make_sampler();
  prng::ChaCha20Source rng(99);
  ScalarBlockSource src(*base, rng);
  Signer signer(kp, src);
  Verifier verifier(kp.h, kp.params);
  Signature sig = signer.sign("payload");
  sig.s1[3] += 2500;  // push the norm out of bounds
  EXPECT_FALSE(verifier.verify("payload", sig));
}

INSTANTIATE_TEST_SUITE_P(Samplers, SignWithEachSampler,
                         ::testing::Values(0, 1, 2, 3));

TEST(Sign, StatsAccumulate) {
  const KeyPair& kp = shared_key();
  auto& f = fixture();
  cdt::CdtByteScanSampler base(f.table);
  prng::ChaCha20Source rng(5);
  ScalarBlockSource src(base, rng);
  Signer signer(kp, src);
  SignStats stats;
  (void)signer.sign("m", &stats);
  EXPECT_GE(stats.attempts, 1u);
  EXPECT_GE(stats.base_samples, 2 * kp.params.n);  // >= one draw per coord
}

TEST(Sign, SignatureNormWellBelowBound) {
  const KeyPair& kp = shared_key();
  auto& f = fixture();
  cdt::CdtBinarySearchSampler base(f.table);
  prng::ChaCha20Source rng(6);
  ScalarBlockSource src(base, rng);
  Signer signer(kp, src);
  const Signature sig = signer.sign("norm test");
  // s1 alone must respect the bound; typical norms sit well inside.
  EXPECT_LT(norm_sq(sig.s1), kp.params.bound_sq());
}

// FNV-1a over nonce || s1 of every signature in order.
void mix_signature(std::uint64_t& h, const Signature& sig) {
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  for (const std::uint8_t b : sig.nonce) byte(b);
  for (const std::int32_t c : sig.s1) {
    const auto v = static_cast<std::uint32_t>(c);
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

TEST(Sign, OutputPinnedAcrossPackedFft) {
  // Golden digests of 32 signatures per degree for fixed keygen and
  // signing seeds, through a ScalarBlockSource (no compiled kernel).
  // The FFT layout, the tree layout and the exponential only move
  // centers and widths by rounding (~1e-12), which flips a draw with
  // negligible probability, so a mismatch means a bug.
  struct Pin {
    std::size_t n;
    std::uint64_t digest;
  };
  const Pin pins[] = {{256, 0x3284aea2612f774cull},
                     {512, 0xb6699ccdc148c204ull}};
  auto& f = fixture();
  for (const Pin& pin : pins) {
    prng::ChaCha20Source key_rng(41);
    const KeyPair kp = keygen(FalconParams::for_degree(pin.n), key_rng);
    cdt::CdtBinarySearchSampler base(f.table);
    prng::ChaCha20Source rng(42);
    ScalarBlockSource src(base, rng);
    Signer signer(kp, src);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 32; ++i)
      mix_signature(h, signer.sign("pinned #" + std::to_string(i)));
    EXPECT_EQ(h, pin.digest)
        << "n=" << pin.n << std::hex << " digest=0x" << h;
  }
}

TEST(Tree, LeafSigmasInsideEnvelope) {
  const FalconTree tree(shared_key());
  EXPECT_GE(tree.min_leaf_sigma(), shared_key().params.sigma_min);
  EXPECT_LE(tree.max_leaf_sigma(), shared_key().params.sigma_max);
}

TEST(SamplerZ, MatchesTargetMoments) {
  auto& f = fixture();
  cdt::CdtBinarySearchSampler base(f.table);
  prng::SplitMix64Source rng(8);
  ScalarBlockSource src(base, rng);
  SamplerZ sz(src, 2.0);
  const double c = 3.3, sigma = 1.5;
  double sum = 0, sum_sq = 0;
  const int k = 40000;
  for (int i = 0; i < k; ++i) {
    const double z = sz.sample(c, sigma);
    sum += z;
    sum_sq += z * z;
  }
  const double mean = sum / k;
  const double var = sum_sq / k - mean * mean;
  EXPECT_NEAR(mean, c, 0.04);
  EXPECT_NEAR(var, sigma * sigma, 0.1);
  EXPECT_GT(sz.base_calls(), static_cast<std::uint64_t>(k));
}

TEST(SamplerZ, NegativeCentersWork) {
  auto& f = fixture();
  cdt::CdtLinearCtSampler base(f.table);
  prng::SplitMix64Source rng(9);
  ScalarBlockSource src(base, rng);
  SamplerZ sz(src, 2.0);
  double sum = 0;
  const int k = 20000;
  for (int i = 0; i < k; ++i) sum += sz.sample(-7.8, 1.3);
  EXPECT_NEAR(sum / k, -7.8, 0.05);
}

TEST(SamplerZ, RejectsSigmaAboveBase) {
  auto& f = fixture();
  cdt::CdtLinearCtSampler base(f.table);
  prng::SplitMix64Source rng(10);
  ScalarBlockSource src(base, rng);
  SamplerZ sz(src, 2.0);
  EXPECT_THROW((void)sz.sample(0.0, 2.5), Error);
}

TEST(SamplerZ, DistributionPerCell) {
  // 200k draws per (fractional center, width) cell over Falcon-512's leaf
  // envelope: chi-square against the ideal D_{Z, sigma', c}, plus a Renyi
  // bound on the empirical pmf. Guards the acceptance exponential.
  const FalconParams params = FalconParams::for_degree(512);
  const double widths[] = {params.sigma_min,
                           (params.sigma_min + params.sigma_max) / 2,
                           params.sigma_max};
  auto& f = fixture();
  cdt::CdtBinarySearchSampler base(f.table);
  prng::SplitMix64Source rng(12);
  ScalarBlockSource src(base, rng);
  SamplerZ sz(src, 2.0);
  constexpr int kDraws = 200000;
  constexpr std::int32_t kLo = -16, kHi = 17;
  const stats::AcceptanceBounds bounds;
  for (const double r : {0.0, 0.5, 0.99}) {
    for (const double sigma : widths) {
      std::vector<std::uint64_t> counts(kHi - kLo + 1, 0);
      for (int i = 0; i < kDraws; ++i) {
        const std::int32_t z = sz.sample(r, sigma);
        ASSERT_GE(z, kLo);
        ASSERT_LE(z, kHi);
        ++counts[static_cast<std::size_t>(z - kLo)];
      }
      const stats::SignedPmf ideal =
          stats::ideal_gaussian_pmf(sigma, r, kLo, kHi);
      const stats::ChiSquareResult chi = stats::chi_square(counts, ideal.probs);
      EXPECT_GE(chi.p_value, bounds.min_chi_p)
          << "r=" << r << " sigma=" << sigma << " stat=" << chi.statistic;
      stats::SignedPmf observed{kLo, {}};
      for (const std::uint64_t c : counts)
        observed.probs.push_back(static_cast<double>(c) / kDraws);
      EXPECT_LE(stats::renyi_divergence(observed, ideal, bounds.renyi_alpha),
                bounds.max_renyi)
          << "r=" << r << " sigma=" << sigma;
    }
  }
}

// Distance in units in the last place between two positive finite doubles.
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::uint64_t>(a);
  const auto ib = std::bit_cast<std::uint64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

TEST(ExpNeg, WithinFourUlpOfStdExp) {
  std::uint64_t worst = 0;
  for (int i = 0; i <= 640000; ++i) {  // [0, 64] in steps of 1e-4
    const double x = i * 1e-4;
    worst = std::max(worst, ulp_distance(detail::exp_neg(x), std::exp(-x)));
  }
  std::mt19937_64 gen(16);
  std::uniform_real_distribution<double> d(0.0, 700.0);
  for (int i = 0; i < 200000; ++i) {
    const double x = d(gen);
    worst = std::max(worst, ulp_distance(detail::exp_neg(x), std::exp(-x)));
  }
  EXPECT_LE(worst, 4u);
}

TEST(ExpNeg, NonPositiveAndNanReturnExactlyOne) {
  for (const double x : {0.0, -0.0, -1e-300, -0.5, -700.0, -1e308,
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()})
    EXPECT_EQ(detail::exp_neg(x), 1.0) << x;
  // Far past the cap the result stays positive and below every nonzero
  // 53-bit uniform.
  for (const double x : {1000.0, 1e308,
                         std::numeric_limits<double>::infinity()}) {
    const double v = detail::exp_neg(x);
    EXPECT_GE(v, 0.0) << x;
    EXPECT_LT(v, 0x1.0p-53) << x;
  }
}

TEST(HashToPoint, DeterministicAndUniform) {
  std::array<std::uint8_t, 40> nonce{};
  nonce[0] = 7;
  const auto a = hash_to_point(nonce, "msg", 256);
  const auto b = hash_to_point(nonce, "msg", 256);
  EXPECT_EQ(a, b);
  const auto c = hash_to_point(nonce, "msh", 256);
  EXPECT_NE(a, c);
  for (std::uint32_t v : a) EXPECT_LT(v, kQ);
  // Rough uniformity: mean near q/2.
  double mean = 0;
  const auto big = hash_to_point(nonce, "uniformity", 1024);
  for (std::uint32_t v : big) mean += v;
  mean /= 1024;
  EXPECT_NEAR(mean, kQ / 2.0, 450);
}

TEST(Codec, RoundTripRandomSignatures) {
  std::mt19937_64 gen(14);
  std::normal_distribution<double> d(0.0, 166.0);
  for (int trial = 0; trial < 20; ++trial) {
    IPoly s1(256);
    for (auto& c : s1)
      c = static_cast<std::int32_t>(std::lround(d(gen)));
    const auto bytes = compress_s1(s1);
    const auto back = decompress_s1(bytes, 256);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s1);
    // Compression actually compresses vs 2 bytes/coeff raw.
    EXPECT_LT(bytes.size(), 256 * 2);
  }
}

TEST(Codec, MalformedInputRejected) {
  EXPECT_FALSE(decompress_s1({}, 4).has_value());
  EXPECT_FALSE(decompress_s1({0xff, 0xff}, 64).has_value());
}

TEST(Codec, BitIoRoundTrip) {
  BitWriter w;
  w.put_bits(0b1011001, 7);
  w.put(1);
  w.put_bits(0x5a5, 12);
  BitReader r(w.bytes());
  EXPECT_EQ(r.get_bits(7), 0b1011001u);
  EXPECT_EQ(r.get(), 1);
  EXPECT_EQ(r.get_bits(12), 0x5a5u);
}

TEST(Verify, WrongKeyRejects) {
  const KeyPair& kp = shared_key();
  prng::ChaCha20Source rng(15);
  const KeyPair other = keygen(FalconParams::for_degree(64), rng);
  auto& f = fixture();
  cdt::CdtByteScanSampler base(f.table);
  ScalarBlockSource src(base, rng);
  Signer signer(kp, src);
  const Signature sig = signer.sign("key confusion");
  Verifier wrong(other.h, other.params);
  EXPECT_FALSE(wrong.verify("key confusion", sig));
}

}  // namespace
}  // namespace cgs::falcon
