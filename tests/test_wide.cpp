// The 256-lane runner: agreement with the 64-lane runner when fed the
// same word stream, distribution quality, validity masks; and the 512-lane
// runner's paired passes against it.

#include <gtest/gtest.h>

#include "ct/batch_sampler.h"
#include "prng/chacha20.h"
#include "stats/chisquare.h"

namespace cgs::ct {
namespace {

TEST(WideSampler, LaneGroupsMatch64LaneSampler) {
  // The wide sampler draws 4 words per input bit (lane groups 0..3). The
  // 64-lane sampler fed the identical stream, 4 batches with stride,
  // produces the lane-group-0 samples on its first batch if we feed every
  // 4th word — easier: run wide with a recorded stream, then replay the
  // stream de-interleaved through the narrow sampler per group.
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(64));
  const int n = m.precision();

  prng::ChaCha20Source rng(12);
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 4 * n; ++i) stream.push_back(rng.next_word());

  class Replay final : public RandomBitSource {
   public:
    explicit Replay(std::vector<std::uint64_t> w) : w_(std::move(w)) {}
    std::uint64_t next_word() override { return w_[pos_++ % w_.size()]; }

   private:
    std::vector<std::uint64_t> w_;
    std::size_t pos_ = 0;
  };

  WideBitslicedSampler wide(synthesize(m, {}));
  Replay wide_src(stream);
  std::uint32_t wide_out[256];
  const auto wide_valid = wide.sample_magnitudes(wide_src, wide_out);

  for (int group = 0; group < 4; ++group) {
    std::vector<std::uint64_t> group_stream;
    for (int k = 0; k < n; ++k)
      group_stream.push_back(stream[static_cast<std::size_t>(4 * k + group)]);
    BitslicedSampler narrow(synthesize(m, {}));
    Replay narrow_src(group_stream);
    std::uint32_t narrow_out[64];
    const auto narrow_valid = narrow.sample_magnitudes(narrow_src, narrow_out);
    EXPECT_EQ(narrow_valid[0], wide_valid[static_cast<std::size_t>(group)])
        << group;
    for (int lane = 0; lane < 64; ++lane)
      EXPECT_EQ(narrow_out[lane], wide_out[64 * group + lane])
          << group << ":" << lane;
  }
}

TEST(WideSampler, DistributionIsCorrect) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(64));
  WideBitslicedSampler s(synthesize(m, {}));
  prng::ChaCha20Source rng(13);
  stats::Histogram h;
  std::int32_t out[256];
  for (int it = 0; it < 2000; ++it) {
    const auto valid = s.sample_batch(rng, out);
    for (int group = 0; group < 4; ++group)
      for (int lane = 0; lane < 64; ++lane)
        if ((valid[group] >> lane) & 1u) h.add(out[64 * group + lane]);
  }
  const auto res = stats::chi_square_signed(h, m);
  EXPECT_GT(res.p_value, 1e-6) << "chi2=" << res.statistic;
}

TEST(WideSampler, ValidMaskNearlyFullAtHighPrecision) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  WideBitslicedSampler s(synthesize(m, {}));
  prng::ChaCha20Source rng(14);
  std::uint32_t out[256];
  for (int it = 0; it < 50; ++it) {
    for (const std::uint64_t v : s.sample_magnitudes(rng, out))
      EXPECT_EQ(v, ~std::uint64_t(0));
  }
}

TEST(WideSampler, PairedPassesMatch256LaneRunner) {
  // A 512-lane pass evaluates two 256-lane draw units in stream order, and
  // fill() draws only the units a request keeps, so the interpreted 512-
  // and 256-lane runners give one stream per seed on any host. Precision 8
  // drops ~1% of lanes, so compaction spans paired passes.
  const SynthesizedSampler synth =
      synthesize(gauss::ProbMatrix(gauss::GaussianParams::sigma_2(8)), {});
  BatchSampler<Word512> paired(synth);
  WideBitslicedSampler single(synth);
  prng::ChaCha20Source rng_a(21), rng_b(21);
  for (const std::size_t n : {1, 255, 256, 257, 511, 512, 513, 1000, 16384,
                              32771}) {
    std::vector<std::int32_t> a(n), b(n);
    paired.fill(rng_a, a);
    single.fill(rng_b, b);
    ASSERT_EQ(a, b) << n;
  }
  // A whole pass: its two halves are the 256-lane runner's next two
  // batches, valid masks included.
  std::int32_t pair[512], one[256];
  const auto mask = paired.sample_batch(rng_a, pair);
  for (std::size_t u = 0; u < 2; ++u) {
    const auto one_mask = single.sample_batch(rng_b, one);
    for (std::size_t g = 0; g < 4; ++g)
      EXPECT_EQ(mask[4 * u + g], one_mask[g]) << u << ":" << g;
    for (std::size_t lane = 0; lane < 256; ++lane)
      EXPECT_EQ(pair[256 * u + lane], one[lane]) << u << ":" << lane;
  }
}

}  // namespace
}  // namespace cgs::ct
