// Signing and verification end to end, with every base sampler of Table 1,
// plus SamplerZ distribution checks, hash-to-point, and the codec.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "cdt/cdt_samplers.h"
#include "ct/batch_sampler.h"
#include "falcon/codec.h"
#include "falcon/sign.h"
#include "falcon/verify.h"
#include "prng/chacha20.h"
#include "prng/splitmix.h"

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
  Signer signer(kp, *base);
  Verifier verifier(kp.h, kp.params);
  prng::ChaCha20Source rng(777 + GetParam());
  for (int i = 0; i < 5; ++i) {
    const std::string msg = "message #" + std::to_string(i);
    const Signature sig = signer.sign(msg, rng);
    EXPECT_TRUE(verifier.verify(msg, sig)) << base->name();
    EXPECT_FALSE(verifier.verify(msg + "!", sig)) << base->name();
  }
}

TEST_P(SignWithEachSampler, TamperedSignatureRejected) {
  const KeyPair& kp = shared_key();
  auto base = make_sampler();
  Signer signer(kp, *base);
  Verifier verifier(kp.h, kp.params);
  prng::ChaCha20Source rng(99);
  Signature sig = signer.sign("payload", rng);
  sig.s1[3] += 2500;  // push the norm out of bounds
  EXPECT_FALSE(verifier.verify("payload", sig));
}

INSTANTIATE_TEST_SUITE_P(Samplers, SignWithEachSampler,
                         ::testing::Values(0, 1, 2, 3));

TEST(Sign, StatsAccumulate) {
  const KeyPair& kp = shared_key();
  auto& f = fixture();
  cdt::CdtByteScanSampler base(f.table);
  Signer signer(kp, base);
  prng::ChaCha20Source rng(5);
  SignStats stats;
  (void)signer.sign("m", rng, &stats);
  EXPECT_GE(stats.attempts, 1u);
  EXPECT_GE(stats.base_samples, 2 * kp.params.n);  // >= one draw per coord
}

TEST(Sign, SignatureNormWellBelowBound) {
  const KeyPair& kp = shared_key();
  auto& f = fixture();
  cdt::CdtBinarySearchSampler base(f.table);
  Signer signer(kp, base);
  prng::ChaCha20Source rng(6);
  const Signature sig = signer.sign("norm test", rng);
  // s1 alone must respect the bound; typical norms sit well inside.
  EXPECT_LT(norm_sq(sig.s1), kp.params.bound_sq());
}

TEST(Tree, LeafSigmasInsideEnvelope) {
  const FalconTree tree(shared_key());
  EXPECT_GE(tree.min_leaf_sigma(), shared_key().params.sigma_min);
  EXPECT_LE(tree.max_leaf_sigma(), shared_key().params.sigma_max);
}

TEST(SamplerZ, MatchesTargetMoments) {
  auto& f = fixture();
  cdt::CdtBinarySearchSampler base(f.table);
  SamplerZ sz(base, 2.0);
  prng::SplitMix64Source rng(8);
  const double c = 3.3, sigma = 1.5;
  double sum = 0, sum_sq = 0;
  const int k = 40000;
  for (int i = 0; i < k; ++i) {
    const double z = sz.sample(c, sigma, rng);
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
  SamplerZ sz(base, 2.0);
  prng::SplitMix64Source rng(9);
  double sum = 0;
  const int k = 20000;
  for (int i = 0; i < k; ++i) sum += sz.sample(-7.8, 1.3, rng);
  EXPECT_NEAR(sum / k, -7.8, 0.05);
}

TEST(SamplerZ, RejectsSigmaAboveBase) {
  auto& f = fixture();
  cdt::CdtLinearCtSampler base(f.table);
  SamplerZ sz(base, 2.0);
  prng::SplitMix64Source rng(10);
  EXPECT_THROW((void)sz.sample(0.0, 2.5, rng), Error);
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
  Signer signer(kp, base);
  const Signature sig = signer.sign("key confusion", rng);
  Verifier wrong(other.h, other.params);
  EXPECT_FALSE(wrong.verify("key confusion", sig));
}

}  // namespace
}  // namespace cgs::falcon
