// Quickstart: get a constant-time discrete Gaussian sampler for sigma = 2 at
// 128-bit precision from the sampler registry (synthesized on first run,
// warm-loaded from the on-disk cache afterwards — try running this twice),
// then draw samples both through the raw bit-sliced runtime and through the
// multi-threaded SamplerEngine. This is the five-line happy path.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "ct/batch_sampler.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "prng/chacha20.h"

int main() {
  using namespace cgs;

  // 1. Parameters: sigma = 2, tail cut 13 sigma, 128-bit probabilities.
  const gauss::GaussianParams params = gauss::GaussianParams::sigma_2(128);
  std::printf("target distribution: %s\n", params.describe().c_str());

  // 2. The registry runs the offline pipeline (probability matrix ->
  //    Theorem-1 leaf list -> minimized Boolean functions -> straight-line
  //    netlist) at most once per configuration: synthesized on the first
  //    ever run, then persisted to the cache directory ($CGS_CACHE_DIR)
  //    and warm-loaded in a fraction of the time.
  engine::SamplerRegistry::Source source;
  const auto t0 = std::chrono::steady_clock::now();
  auto synth = engine::SamplerRegistry::global().get(params, {}, &source);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0).count();
  std::printf("sampler ready in %.2f ms (%s): %s\n", ms,
              source == engine::SamplerRegistry::Source::kDisk
                  ? "warm start from disk cache"
                  : "cold synthesis, now cached",
              synth->stats.describe().c_str());

  // 3. Wrap in the bit-sliced runtime and sample 64 values per batch.
  ct::BitslicedSampler sampler(*synth);
  prng::ChaCha20Source rng(/*seed=*/2019);

  std::int64_t count = 0;
  double sum = 0, sum_sq = 0;
  std::int32_t batch[64];
  for (int it = 0; it < 10000; ++it) {
    const std::uint64_t valid = sampler.sample_batch(rng, batch)[0];
    for (int lane = 0; lane < 64; ++lane) {
      if (!((valid >> lane) & 1u)) continue;  // ~never at 128-bit precision
      ++count;
      sum += batch[lane];
      sum_sq += static_cast<double>(batch[lane]) * batch[lane];
    }
  }

  const double mean = sum / static_cast<double>(count);
  const double sigma_hat =
      std::sqrt(sum_sq / static_cast<double>(count) - mean * mean);
  std::printf("drew %lld samples: mean = %+.4f (expect 0), sigma = %.4f "
              "(expect 2)\n",
              static_cast<long long>(count), mean, sigma_hat);

  std::printf("first batch: ");
  for (int i = 0; i < 16; ++i) std::printf("%d ", batch[i]);
  std::printf("...\n");

  // 4. Or let the engine pick the fastest backend and fan the work out
  //    across worker threads, one independent ChaCha20 stream each. With
  //    the registry as its kernel source, the host-compiled kernel is
  //    compiled on the first run and loaded from the cache afterwards.
  auto& registry = engine::SamplerRegistry::global();
  const auto e0 = std::chrono::steady_clock::now();
  engine::SamplerEngine eng(synth, {.root_seed = 2019, .registry = &registry});
  const double engine_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - e0).count();
  const auto kernels = registry.kernel_cache_stats();
  std::printf("engine ready in %.2f ms%s\n", engine_ms,
              kernels.warm_starts ? " (kernel warm start from disk cache)"
              : kernels.misses    ? " (kernel compiled, now cached)"
                                  : "");
  const auto bulk = eng.sample(1 << 20);
  double bulk_sq = 0;
  for (std::int32_t v : bulk) bulk_sq += static_cast<double>(v) * v;
  std::printf("engine [%s, %d threads]: %zu samples, sigma = %.4f\n",
              engine::backend_name(eng.backend()), eng.num_threads(),
              bulk.size(),
              std::sqrt(bulk_sq / static_cast<double>(bulk.size())));
  return 0;
}
