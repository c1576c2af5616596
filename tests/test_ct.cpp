// The paper's core machinery: Theorem 1, Claim 1, sublist structure, and
// the synthesized constant-time samplers (split and flat), parameterized
// across sigma and precision.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "ct/batch_sampler.h"
#include "ct/flat_baseline.h"
#include "ct/synthesis.h"
#include "ddg/kysampler.h"
#include "prng/chacha20.h"
#include "prng/isa.h"
#include "prng/splitmix.h"
#include "stats/chisquare.h"

namespace cgs::ct {
namespace {

struct Case {
  const char* name;
  gauss::GaussianParams params;
};

std::vector<Case> small_cases() {
  return {
      {"sigma1_n16", gauss::GaussianParams::sigma_1(16)},
      {"sigma1_n24", gauss::GaussianParams::sigma_1(24)},
      {"sigma2_n16", gauss::GaussianParams::sigma_2(16)},
      {"sigma2_n32", gauss::GaussianParams::sigma_2(32)},
      {"sqrt5_n24", gauss::GaussianParams::sigma_sqrt5(24)},
      {"sigma6_n24", gauss::GaussianParams::sigma_6_15543(24)},
  };
}

class LeafEnumCases : public ::testing::TestWithParam<int> {};

TEST_P(LeafEnumCases, Theorem1FormAndWalkAgreement) {
  const Case c = small_cases()[static_cast<std::size_t>(GetParam())];
  const gauss::ProbMatrix m(c.params);
  const ddg::KnuthYaoSampler ref(m);
  const LeafList list = enumerate_leaves(m);

  std::set<std::vector<int>> seen;
  for (const Leaf& leaf : list.leaves) {
    // Theorem 1: draw-order form 1^kappa 0 (0/1)^j.
    const std::vector<int> bits = leaf.bits();
    ASSERT_EQ(static_cast<int>(bits.size()), leaf.level + 1);
    for (int i = 0; i < leaf.kappa; ++i) EXPECT_EQ(bits[static_cast<std::size_t>(i)], 1);
    EXPECT_EQ(bits[static_cast<std::size_t>(leaf.kappa)], 0);
    EXPECT_EQ(leaf.j, leaf.level - leaf.kappa);
    // Uniqueness of paths.
    EXPECT_TRUE(seen.insert(bits).second);
    // The walk agrees bit-for-bit.
    const auto w = ref.walk_bits(bits);
    ASSERT_TRUE(w.has_value()) << c.name;
    EXPECT_EQ(w->value, leaf.value);
    EXPECT_EQ(w->bits_used, leaf.level + 1);
  }
}

TEST_P(LeafEnumCases, AllOnesNeverHits) {
  const Case c = small_cases()[static_cast<std::size_t>(GetParam())];
  const gauss::ProbMatrix m(c.params);
  const ddg::KnuthYaoSampler ref(m);
  std::vector<int> ones(static_cast<std::size_t>(m.precision()), 1);
  EXPECT_FALSE(ref.walk_bits(ones).has_value()) << c.name;
}

TEST_P(LeafEnumCases, CoveredMassMatchesDeficit) {
  const Case c = small_cases()[static_cast<std::size_t>(GetParam())];
  const gauss::ProbMatrix m(c.params);
  const LeafList list = enumerate_leaves(m);
  EXPECT_NEAR(list.covered_probability, 1.0 - m.deficit_double(), 1e-12);
}

TEST_P(LeafEnumCases, LeafCountMatchesColumnWeights) {
  const Case c = small_cases()[static_cast<std::size_t>(GetParam())];
  const gauss::ProbMatrix m(c.params);
  const LeafList list = enumerate_leaves(m);
  std::size_t expect = 0;
  for (int i = 0; i < m.precision(); ++i)
    expect += static_cast<std::size_t>(m.column_weight(i));
  EXPECT_EQ(list.leaves.size(), expect);
}

INSTANTIATE_TEST_SUITE_P(Cases, LeafEnumCases,
                         ::testing::Range(0, 6));

TEST(Sublists, Claim1OneHotSelectors) {
  // c_kappa = b_0 & ... & b_{kappa-1} & ~b_kappa is 1 iff the string has
  // exactly kappa leading ones — brute-force over all 2^12 strings.
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(12));
  const LeafList list = enumerate_leaves(m);
  const SublistSplit split = split_by_kappa(list);
  for (std::uint32_t x = 0; x < (1u << 12); ++x) {
    int leading = 0;
    while (leading < 12 && ((x >> leading) & 1u)) ++leading;
    for (const Sublist& sl : split.sublists) {
      bool c_kappa = true;
      for (int i = 0; i < sl.kappa; ++i) c_kappa &= ((x >> i) & 1u) != 0;
      c_kappa &= sl.kappa < 12 && ((x >> sl.kappa) & 1u) == 0;
      EXPECT_EQ(c_kappa, leading == sl.kappa) << x;
    }
  }
}

TEST(Sublists, DeltaPerSublistBounded) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_6_15543(64));
  const SublistSplit split = split_by_kappa(enumerate_leaves(m));
  for (const Sublist& sl : split.sublists) {
    EXPECT_LE(sl.delta, split.delta);
    EXPECT_LE(sl.kappa + sl.delta, m.precision() - 1);
    for (const Leaf& leaf : sl.leaves) {
      EXPECT_EQ(leaf.kappa, sl.kappa);
      EXPECT_LE(leaf.j, sl.delta);
    }
  }
}

TEST(Sublists, TruthTablesHaveNoConflicts) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(32));
  const SublistSplit split = split_by_kappa(enumerate_leaves(m));
  for (const Sublist& sl : split.sublists) {
    if (sl.leaves.empty()) continue;
    for (int iota = 0; iota < split.num_output_bits; ++iota)
      EXPECT_NO_THROW(sl.output_bit_table(iota));
    const auto vt = sl.valid_table();
    // valid table is fully specified (no DC).
    for (std::uint64_t mm = 0; mm < vt.size(); ++mm)
      EXPECT_NE(vt.state(mm), bf::TruthTable::State::kDc);
  }
}

// Paper §5: Delta values for the four parameter sets. Our probability
// pipeline yields slightly different constants than the authors' (see
// EXPERIMENTS.md); the invariant that matters is that Delta stays small.
TEST(Theorem1, DeltaGoldensAtFullPrecision) {
  struct Golden {
    gauss::GaussianParams p;
    int delta;
    int paper;
  };
  const Golden gold[] = {
      {gauss::GaussianParams::sigma_1(128), 3, 4},
      {gauss::GaussianParams::sigma_2(128), 5, 4},
      {gauss::GaussianParams::sigma_6_15543(128), 6, 6},
      {gauss::GaussianParams::sigma_215(128), 11, 15},
  };
  for (const auto& g : gold) {
    const gauss::ProbMatrix m(g.p);
    const LeafList list = enumerate_leaves(m);
    EXPECT_EQ(list.delta, g.delta) << g.p.describe();
    EXPECT_LE(list.delta, g.paper + 1) << "Delta should stay paper-small";
  }
}

class SamplerEquivalence
    : public ::testing::TestWithParam<std::tuple<int, MinimizeMode>> {};

TEST_P(SamplerEquivalence, NetlistMatchesReferenceExhaustively) {
  const auto [case_idx, mode] = GetParam();
  Case c = small_cases()[static_cast<std::size_t>(case_idx)];
  // Exhaustive check needs tiny precision.
  c.params.precision = 14;
  const gauss::ProbMatrix m(c.params);
  const ddg::KnuthYaoSampler ref(m);
  SynthesisConfig cfg;
  cfg.mode = mode;
  const SynthesizedSampler synth = synthesize(m, cfg);
  const int mbits = synth.num_output_bits;
  for (std::uint32_t x = 0; x < (1u << 14); ++x) {
    std::vector<int> bits(14);
    for (int i = 0; i < 14; ++i) bits[static_cast<std::size_t>(i)] = (x >> i) & 1u;
    const auto out = synth.netlist.eval_bits(bits);
    const auto walk = ref.walk_bits(bits);
    ASSERT_EQ(out[static_cast<std::size_t>(mbits)] != 0, walk.has_value())
        << c.name << " x=" << x;
    if (walk) {
      std::uint32_t v = 0;
      for (int iota = 0; iota < mbits; ++iota)
        v |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(iota)]) << iota;
      ASSERT_EQ(v, walk->value) << c.name << " x=" << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SamplerEquivalence,
    ::testing::Combine(::testing::Values(0, 2, 4),
                       ::testing::Values(MinimizeMode::kExact,
                                         MinimizeMode::kHeuristic,
                                         MinimizeMode::kMergeOnly,
                                         MinimizeMode::kNone)));

TEST(SamplerEquivalence, FlatMatchesSplitAtFullPrecision) {
  // Both samplers on the same random words must emit identical batches.
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  BitslicedSampler split(synthesize(m, {}));
  BitslicedSampler flat(synthesize_flat(m, {}));
  prng::ChaCha20Source rng_a(3), rng_b(3);
  std::int32_t out_a[64], out_b[64];
  for (int batch = 0; batch < 50; ++batch) {
    const auto va = split.sample_batch(rng_a, out_a);
    const auto vb = flat.sample_batch(rng_b, out_b);
    EXPECT_EQ(va, vb);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(out_a[i], out_b[i]) << batch;
  }
}

TEST(BitslicedSampler, ChiSquareAgainstMatrix) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_6_15543(64));
  BitslicedSampler s(synthesize(m, {}));
  prng::ChaCha20Source rng(11);
  stats::Histogram h;
  std::int32_t batch[64];
  for (int it = 0; it < 6000; ++it) {
    const std::uint64_t valid = s.sample_batch(rng, batch)[0];
    for (int lane = 0; lane < 64; ++lane)
      if ((valid >> lane) & 1u) h.add(batch[lane]);
  }
  const auto res = stats::chi_square_signed(h, m);
  EXPECT_GT(res.p_value, 1e-6) << "chi2=" << res.statistic;
}

TEST(BitslicedSampler, ValidMaskAllOnesAtCryptoPrecision) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  BitslicedSampler s(synthesize(m, {}));
  prng::ChaCha20Source rng(13);
  std::uint32_t mags[64];
  for (int it = 0; it < 200; ++it)
    EXPECT_EQ(s.sample_magnitudes(rng, mags)[0], ~std::uint64_t(0));
}

TEST(BitslicedSampler, WordsPerBatchAccounting) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  BitslicedSampler s(synthesize(m, {}));
  EXPECT_EQ(s.words_per_batch(), 129);  // n + sign word
}

TEST(BitslicedSampler, BatchesMatchGoldenDigest) {
  // Pins the 64-lane stream — word order, unpack, sign fold, valid mask —
  // to FNV-1a over 30 batches (each mask word, then its 64 samples, little
  // endian) for a fixed seed.
  BitslicedSampler s(
      synthesize(gauss::ProbMatrix(gauss::GaussianParams::sigma_2(64)), {}));
  prng::ChaCha20Source rng(9);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  std::int32_t batch[64];
  for (int it = 0; it < 30; ++it) {
    mix(s.sample_batch(rng, batch)[0], 8);
    for (std::int32_t v : batch) mix(static_cast<std::uint32_t>(v), 4);
  }
  EXPECT_EQ(h, 0xfb3b0adbc6167abbull);
}

// The per-lane transpose the byte-parallel unpack must reproduce.
// Lane 64g + i of a batch, one lane at a time: bit i of each plane, then
// negated iff bit i of the group's sign word is set.
std::int32_t lane_reference(const std::uint64_t* planes, int groups, int m,
                            const std::uint64_t* signs, int lane) {
  const int g = lane / 64, i = lane % 64;
  std::int32_t v = 0;
  for (int k = 0; k < m; ++k)
    v |= static_cast<std::int32_t>((planes[groups * k + g] >> i) & 1u) << k;
  return (signs[g] >> i) & 1u ? -v : v;
}

using Unpack = void (*)(const std::uint64_t*, int, const std::uint64_t*,
                        std::int32_t*);

struct UnpackCase {
  const char* name;
  Unpack unpack;
  int groups;
};

/// Every unpack: the generic one at each lane word and, where the host
/// runs it, the 512-lane one in registers.
std::vector<UnpackCase> unpacks() {
  std::vector<UnpackCase> v = {
      {"64", unpack_batch<std::uint64_t>, 1},
      {"256", unpack_batch<Word256>, 4},
      {"512", unpack_batch<Word512>, 8}};
#if defined(__x86_64__)
  if (prng::host_vector_isa() >= prng::VectorIsa::kAvx512vbmi)
    v.push_back({"512 in registers", unpack_batch_avx512, 8});
#endif
  return v;
}

void check_unpack(const UnpackCase& u, const std::uint64_t* planes, int m,
                  const std::uint64_t* signs) {
  std::int32_t got[512];
  u.unpack(planes, m, signs, got);
  for (int lane = 0; lane < 64 * u.groups; ++lane)
    ASSERT_EQ(got[lane], lane_reference(planes, u.groups, m, signs, lane))
        << u.name << " m=" << m << " lane=" << lane;
}

TEST(BatchSampler, SpreadUnpackMatchesPerLaneLoop) {
  // Every byte value in every byte of every plane and sign word, at every
  // m on the byte path (m <= 7) and just past it.
  for (int m = 1; m <= 8; ++m) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      std::uint64_t planes[8 * 8], signs[8];
      for (int w = 0; w < 8 * 8; ++w) {
        planes[w] = 0;
        for (int byte = 0; byte < 8; ++byte)
          planes[w] |= ((b + 37 * static_cast<std::uint64_t>(w) +
                         101 * static_cast<std::uint64_t>(byte)) &
                        0xff)
                       << (8 * byte);
      }
      for (int g = 0; g < 8; ++g)
        signs[g] = planes[g] ^ (0x5555555555555555ull << g);
      for (const UnpackCase& u : unpacks()) check_unpack(u, planes, m, signs);
    }
  }

  // Random planes and signs, on both paths; all-zero signs leave plain
  // magnitudes.
  prng::SplitMix64Source rng(5);
  for (int m : {3, 5, 7, 9, 12}) {
    for (int it = 0; it < 100; ++it) {
      std::uint64_t planes[8 * 12], signs[8];
      const std::uint64_t no_signs[8] = {};
      for (auto& w : planes) w = rng.next_word();
      for (auto& w : signs) w = rng.next_word();
      for (const UnpackCase& u : unpacks()) {
        check_unpack(u, planes, m, signs);
        check_unpack(u, planes, m, no_signs);
      }
    }
  }
}

TEST(BufferedSampler, ServesIndividualSamples) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(64));
  BufferedSampler s(synthesize(m, {}));
  prng::SplitMix64Source rng(17);
  double sum_sq = 0;
  const int k = 20000;
  for (int i = 0; i < k; ++i) {
    const double v = s.sample(rng);
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum_sq / k, 4.0, 0.2);
  EXPECT_TRUE(s.constant_time());
  EXPECT_STREQ(s.name(), "bitsliced-ct(this work)");
}

TEST(Synthesis, StatsAreFilled) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(64));
  const auto s = synthesize(m, {});
  EXPECT_GT(s.stats.num_leaves, 0u);
  EXPECT_GT(s.stats.netlist_ops, 0u);
  EXPECT_LE(s.stats.cubes_minimized, s.stats.cubes_raw);
  EXPECT_TRUE(s.stats.all_exact);
  EXPECT_NE(s.stats.describe().find("Delta"), std::string::npos);
}

TEST(Synthesis, SplitBeatsFlatOnOpCount) {
  // The headline claim of the paper, in netlist-op form.
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_6_15543(128));
  const auto split = synthesize(m, {});
  const auto flat = synthesize_flat(m, {});
  EXPECT_LT(split.stats.netlist_ops, flat.stats.netlist_ops);
}

TEST(Synthesis, CseShrinksNetlist) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(48));
  SynthesisConfig with, without;
  without.cse = false;
  EXPECT_LT(synthesize(m, with).stats.netlist_ops,
            synthesize(m, without).stats.netlist_ops);
}

}  // namespace
}  // namespace cgs::ct
