// End-to-end smoke checks of the synthesis pipeline: leaf enumeration
// against brute-force Alg.1 walks, bit-exact equivalence of the bitsliced
// sampler with the reference sampler, and Theorem-1 structure.

#include <gtest/gtest.h>

#include "ct/batch_sampler.h"
#include "ct/flat_baseline.h"
#include "ct/synthesis.h"
#include "ddg/kysampler.h"
#include "prng/splitmix.h"
#include "stats/chisquare.h"

namespace cgs {
namespace {

gauss::ProbMatrix small_matrix() {
  return gauss::ProbMatrix(gauss::GaussianParams::sigma_2(/*precision=*/16));
}

TEST(PipelineSmoke, LeafEnumerationMatchesWalk) {
  const auto m = small_matrix();
  const ddg::KnuthYaoSampler ref(m);
  const ct::LeafList list = ct::enumerate_leaves(m);
  ASSERT_FALSE(list.leaves.empty());
  for (const ct::Leaf& leaf : list.leaves) {
    const auto walk = ref.walk_bits(leaf.bits());
    ASSERT_TRUE(walk.has_value()) << "leaf string misses: level=" << leaf.level;
    EXPECT_EQ(walk->value, leaf.value);
    EXPECT_EQ(walk->bits_used, leaf.level + 1);
  }
}

TEST(PipelineSmoke, BitslicedMatchesReferenceDistribution) {
  const auto m = small_matrix();
  ct::SynthesisConfig cfg;
  auto synth = ct::synthesize(m, cfg);
  ct::BitslicedSampler sampler(std::move(synth));

  prng::SplitMix64Source rng(42);
  stats::Histogram h;
  std::int32_t batch[64];
  for (int it = 0; it < 4000; ++it) {
    const std::uint64_t valid = sampler.sample_batch(rng, batch)[0];
    for (int lane = 0; lane < 64; ++lane)
      if ((valid >> lane) & 1u) h.add(batch[lane]);
  }
  const auto res = stats::chi_square_signed(h, m);
  EXPECT_GT(res.p_value, 1e-6) << "chi2=" << res.statistic
                               << " dof=" << res.dof;
}

TEST(PipelineSmoke, NetlistAgreesWithReferenceOnAllStrings) {
  // Exhaustive: precision 12 -> 4096 input strings, compare netlist output
  // with the reference walk for every single one.
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_1(12));
  const ddg::KnuthYaoSampler ref(m);
  auto synth = ct::synthesize(m, {});
  const int n = synth.precision;
  const int mbits = synth.num_output_bits;
  for (std::uint32_t x = 0; x < (1u << n); ++x) {
    std::vector<int> bits(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) bits[static_cast<std::size_t>(i)] = (x >> i) & 1u;
    const auto out = synth.netlist.eval_bits(bits);
    const auto walk = ref.walk_bits(bits);
    const bool valid = out[static_cast<std::size_t>(mbits)] != 0;
    ASSERT_EQ(valid, walk.has_value()) << "x=" << x;
    if (walk) {
      std::uint32_t v = 0;
      for (int iota = 0; iota < mbits; ++iota)
        v |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(iota)])
             << iota;
      ASSERT_EQ(v, walk->value) << "x=" << x;
    }
  }
}

TEST(PipelineSmoke, FlatBaselineAgreesToo) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_1(12));
  const ddg::KnuthYaoSampler ref(m);
  auto synth = ct::synthesize_flat(m, {});
  const int n = synth.precision;
  const int mbits = synth.num_output_bits;
  for (std::uint32_t x = 0; x < (1u << n); ++x) {
    std::vector<int> bits(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) bits[static_cast<std::size_t>(i)] = (x >> i) & 1u;
    const auto out = synth.netlist.eval_bits(bits);
    const auto walk = ref.walk_bits(bits);
    ASSERT_EQ(out[static_cast<std::size_t>(mbits)] != 0, walk.has_value());
    if (walk) {
      std::uint32_t v = 0;
      for (int iota = 0; iota < mbits; ++iota)
        v |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(iota)])
             << iota;
      ASSERT_EQ(v, walk->value);
    }
  }
}

TEST(PipelineSmoke, Theorem1DeltaForSigma2) {
  // Paper §5 reports Delta = 4 for sigma = 2; the exact constant depends on
  // the probability-table pipeline (normalizer, rounding). Ours measures 5
  // at n = 128 — same order, structural claim intact. Golden-tested here so
  // regressions surface.
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  const auto list = ct::enumerate_leaves(m);
  EXPECT_EQ(list.delta, 5);
  EXPECT_LE(list.delta, 6);  // the paper-level claim: Delta stays tiny
}

}  // namespace
}  // namespace cgs
