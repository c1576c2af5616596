// Large-sigma sampling via convolution (the use-case the paper's §3 points
// at: its sampler is the *base* sampler of [25, 28]-style constructions).
// Builds sigma ~= 215 from two draws of the constant-time sigma = 6.15543
// base sampler: x = x1 + k * x2, sigma = sigma0 sqrt(1 + k^2).

#include <cmath>
#include <cstdio>

#include "conv/convolution.h"
#include "ct/batch_sampler.h"
#include "prng/chacha20.h"
#include "stats/chisquare.h"

int main() {
  using namespace cgs;

  const double target = 215.0;
  const gauss::GaussianParams base_params =
      gauss::GaussianParams::sigma_6_15543(128);
  const int k = conv::ConvolutionSampler::stride_for(base_params.sigma(), target);
  const double sigma =
      conv::ConvolutionSampler::combined_sigma(base_params.sigma(), k);
  std::printf("base sigma = %.5f, stride k = %d -> combined sigma = %.3f "
              "(target %.1f)\n",
              base_params.sigma(), k, sigma, target);

  const gauss::ProbMatrix matrix(base_params);
  ct::BufferedSampler base(ct::synthesize(matrix, {}));
  conv::ConvolutionSampler sampler(base, k);
  std::printf("constant-time: %s (inherited from the base sampler)\n",
              sampler.constant_time() ? "yes" : "no");

  prng::ChaCha20Source rng(215);
  double sum = 0, sum_sq = 0;
  stats::Histogram h;
  const int kSamples = 400000;
  for (int i = 0; i < kSamples; ++i) {
    const std::int32_t v = sampler.sample(rng);
    sum += v;
    sum_sq += static_cast<double>(v) * v;
    h.add(v / 32);  // coarse bins for display
  }
  const double mean = sum / kSamples;
  std::printf("drew %d samples: mean %+.3f, sigma %.3f\n", kSamples, mean,
              std::sqrt(sum_sq / kSamples - mean * mean));
  std::printf("\ncoarse histogram (bin = 32 values):\n%s",
              h.render(48).c_str());
  return 0;
}
