// Arbitrary-(sigma, c) service throughput: the batch convolution path vs
// the scalar two-draws-per-sample baseline it replaces, on the ISSUE's
// non-synthesized target sigma=271.4, c=0.5.
//
//   1. plan      — recipe selection (base sigma0, stride k, shift stage);
//   2. scalar    — n samples through ConvolutionSampler::sample over a
//                  buffered single-stream bit-sliced base (the only way to
//                  serve this target before GaussianService existed);
//   3. service   — n samples through GaussianService batch requests (two
//                  SamplerEngine streams, vectorized combine);
//   4. accept    — chi-square vs the design pmf + Renyi vs the ideal
//                  D_{sigma', c}: the speed must not come from serving the
//                  wrong distribution.
//
// Self-checks: acceptance always gates; the >= 5x speedup gate is skipped
// when CGS_BENCH_SKIP_TIMING_GATE is set (shared CI runners).
//
// Usage: bench_conv_service [samples_per_run] [--json FILE]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "conv/convolution.h"
#include "ct/batch_sampler.h"
#include "engine/service.h"
#include "gauss/probmatrix.h"
#include "prng/chacha20.h"
#include "stats/acceptance.h"

namespace {

using namespace cgs;
using benchutil::Clock;
using benchutil::ms_since;

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  const std::string& json_path = args.json_path;
  const std::size_t n_samples = args.n ? args.n : 1000000;
  const double target_sigma = 271.4, target_center = 0.5;

  // Per-process cache dir: hermetic against concurrent runs (same reasoning
  // as bench_engine_throughput).
  const std::string dir = std::filesystem::temp_directory_path() /
                          ("cgs-bench-conv-cache-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  engine::SamplerRegistry reg({.cache_dir = dir});

  // 1. Plan.
  engine::GaussianService service(reg, {.root_seed = 2019});
  const gauss::ConvolutionRecipe recipe =
      service.plan(target_sigma, target_center);
  std::printf("== plan: %s ==\n\n", recipe.describe().c_str());

  // Offline part, reported but not gated: base synthesis + kernel hosting.
  auto t0 = Clock::now();
  const auto synth = reg.get(recipe.base);
  const double synth_ms = ms_since(t0);

  // 2. Scalar baseline: one stream, two scalar draws + combine per sample.
  ct::BufferedSampler base(*synth);
  conv::ConvolutionSampler scalar(base, recipe.k);
  prng::ChaCha20Source rng(2019);
  t0 = Clock::now();
  std::int64_t sink = 0;
  for (std::size_t i = 0; i < n_samples; ++i) sink += scalar.sample(rng);
  const double scalar_ms = ms_since(t0);
  const double scalar_rate = static_cast<double>(n_samples) / scalar_ms * 1e3;
  std::printf("== scalar: %zu x ConvolutionSampler::sample: %.0f ms "
              "(%.3e samples/s) ==\n",
              n_samples, scalar_ms, scalar_rate);

  // 3. Service batch path (first call pays engine bring-up; warm it, then
  // measure steady-state throughput like the engine bench does).
  t0 = Clock::now();
  (void)service.sample(target_sigma, target_center, n_samples / 4);
  const double bringup_ms = ms_since(t0);
  t0 = Clock::now();
  const auto samples = service.sample(target_sigma, target_center, n_samples);
  const double service_ms = ms_since(t0);
  const double service_rate = static_cast<double>(n_samples) / service_ms * 1e3;
  const double speedup = service_rate / scalar_rate;
  std::printf("== service: %zu-sample batch: %.0f ms (%.3e samples/s, "
              "%.1fx scalar; bring-up %.0f ms, synthesis %.0f ms) ==\n\n",
              n_samples, service_ms, service_rate, speedup, bringup_ms,
              synth_ms);

  // 4. Acceptance: the convolved batch must match D_{sigma', c}.
  const gauss::ProbMatrix matrix(recipe.base);
  const auto acc = stats::accept_convolution(samples, matrix, recipe);
  std::printf("== acceptance: %s ==\n", acc.describe().c_str());

  if (!json_path.empty()) {
    benchutil::JsonWriter json;
    json.begin_object()
        .field("bench", "conv_service")
        .field("target_sigma", target_sigma)
        .field("target_center", target_center)
        .field("base_sigma", recipe.base.sigma())
        .field("stride", recipe.k)
        .field("achieved_sigma", recipe.achieved_sigma)
        .field("sigma_loss", recipe.sigma_loss)
        .field("n", n_samples)
        .field("synthesis_ms", synth_ms)
        .field("bringup_ms", bringup_ms)
        .field("scalar_samples_per_sec", scalar_rate)
        .field("service_samples_per_sec", service_rate)
        .field("speedup", speedup)
        .field("chi_p_value", acc.chi.p_value)
        .field("renyi2", acc.renyi)
        .field("accepted", acc.accepted())
        .end_object();
    json.write_file(json_path);
  }

  std::filesystem::remove_all(dir);
  (void)sink;

  const char* skip_env = std::getenv("CGS_BENCH_SKIP_TIMING_GATE");
  const bool gate_timing = !(skip_env && *skip_env && *skip_env != '0');
  if (!acc.accepted() || (gate_timing && speedup < 5.0)) {
    std::printf("\nFAIL: %s\n", !acc.accepted()
                                    ? "acceptance rejected the batch"
                                    : "service batch < 5x scalar");
    return 1;
  }
  std::printf("\nOK: batch %.1fx scalar%s, acceptance passed\n", speedup,
              gate_timing ? " (>= 5x)" : " (timing gate skipped)");
  return 0;
}
