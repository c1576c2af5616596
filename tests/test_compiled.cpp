// Compiled-kernel sampler: bit-exact equivalence with the interpreted
// netlist on identical randomness, across parameter sets.

#include <gtest/gtest.h>

#include "ct/batch_sampler.h"
#include "ct/compiled_sampler.h"
#include "ct/kernel_cache.h"
#include "prng/chacha20.h"

namespace cgs::ct {
namespace {

std::shared_ptr<const CompiledKernel> private_kernel(
    const SynthesizedSampler& synth) {
  return load_or_compile_kernel(KernelSource(synth, 64)).kernel;
}

class CompiledVsInterpreted : public ::testing::TestWithParam<int> {};

TEST_P(CompiledVsInterpreted, IdenticalBatches) {
  if (!CompiledKernel::is_available())
    GTEST_SKIP() << "no host compiler on this machine";
  const auto params = GetParam() == 0 ? gauss::GaussianParams::sigma_2(128)
                     : GetParam() == 1
                         ? gauss::GaussianParams::sigma_1(64)
                         : gauss::GaussianParams::sigma_6_15543(128);
  const gauss::ProbMatrix m(params);
  const SynthesizedSampler synth = synthesize(m, {});
  BitslicedSampler interp(synth);
  BitslicedSampler comp(synth, private_kernel(synth));
  prng::ChaCha20Source rng_a(9), rng_b(9);
  std::int32_t a[64], b[64];
  for (int batch = 0; batch < 30; ++batch) {
    const auto va = interp.sample_batch(rng_a, a);
    const auto vb = comp.sample_batch(rng_b, b);
    ASSERT_EQ(va, vb);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(a[i], b[i]) << batch << ":" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Params, CompiledVsInterpreted,
                         ::testing::Values(0, 1, 2));

TEST(BufferedCompiled, ServesSamples) {
  if (!CompiledKernel::is_available()) GTEST_SKIP();
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  const SynthesizedSampler synth = synthesize(m, {});
  BufferedSampler s(synth, private_kernel(synth));
  EXPECT_STREQ(s.name(), "bitsliced-ct-compiled");
  prng::ChaCha20Source rng(4);
  double sum_sq = 0;
  const int k = 20000;
  for (int i = 0; i < k; ++i) {
    const double v = s.sample(rng);
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum_sq / k, 4.0, 0.2);
}

}  // namespace
}  // namespace cgs::ct
