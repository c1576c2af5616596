// The 256-lane runner: agreement with the 64-lane runner when fed the
// same word stream, distribution quality, validity masks.

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

}  // namespace
}  // namespace cgs::ct
