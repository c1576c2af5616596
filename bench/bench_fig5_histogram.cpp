// Fig. 5: histograms of the constant-time bit-sliced sampler for sigma = 2
// and sigma = 6.15543. The paper plots 64e7 samples; the default here is
// 64e5 for a quick run (pass a multiplier argument to scale up, 100 ->
// paper-size). A chi-square test against the target distribution
// accompanies each plot.

#include <cstdio>
#include <cstdlib>

#include "ct/batch_sampler.h"
#include "prng/chacha20.h"
#include "stats/chisquare.h"

namespace {

using namespace cgs;

void run(const char* label, const gauss::GaussianParams& params,
         std::uint64_t batches) {
  const gauss::ProbMatrix matrix(params);
  ct::BitslicedSampler sampler(ct::synthesize(matrix, {}));
  prng::ChaCha20Source rng(2019);

  stats::Histogram h;
  std::int32_t batch[64];
  for (std::uint64_t it = 0; it < batches; ++it) {
    const std::uint64_t valid = sampler.sample_batch(rng, batch)[0];
    for (int lane = 0; lane < 64; ++lane)
      if ((valid >> lane) & 1u) h.add(batch[lane]);
  }

  std::printf("--- %s: %llu samples ---\n", label,
              static_cast<unsigned long long>(h.total()));
  std::printf("%s", h.render(64).c_str());
  const auto chi = stats::chi_square_signed(h, matrix);
  std::printf("chi-square = %.2f (dof %d), p = %.4f\n\n", chi.statistic,
              chi.dof, chi.p_value);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t scale = 1;
  if (argc > 1) scale = std::strtoull(argv[1], nullptr, 10);
  const std::uint64_t batches = 100000 * scale;  // 64e5 samples at scale 1

  std::printf("Fig. 5 reproduction: sampler output histograms (%llu x 64 "
              "samples)\n\n",
              static_cast<unsigned long long>(batches));
  run("sigma = 2", gauss::GaussianParams::sigma_2(128), batches);
  run("sigma = 6.15543", gauss::GaussianParams::sigma_6_15543(128), batches);
  return 0;
}
