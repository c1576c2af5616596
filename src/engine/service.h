#pragma once
// GaussianService: arbitrary-(sigma, center) batch sampling on top of the
// registry + engine stack. A request for any target (sigma, c) — not just
// the synthesized configurations — is served by planning a recipe once
// (pick a base sigma_0 >= eta_eps(Z) from the registry's candidate set, a
// convolution stride k, and an integer-shift + randomized-rounding stage
// for the center), then combining bulk samples from TWO SamplerEngine
// streams vectorized:
//
//     x = x1 + k * x2 + floor(c) + Bernoulli(frac(c))
//
// instead of the scalar two-draws-per-sample ConvolutionSampler path. Every
// distinct target materializes one Stream (recipe + two engines + a
// dedicated rounding PRNG), created lazily and reused across requests.
// Output is fully deterministic for a fixed (root_seed, num_threads,
// target, request sizes): per-stream seeds are derived from the root seed
// and the canonical recipe key, so targets never share PRNG state and the
// order targets are first requested in does not matter.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "conv/convolution.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "gauss/recipe.h"
#include "prng/chacha20.h"

namespace cgs::engine {

struct ServiceOptions {
  Backend backend = Backend::kAuto;
  int num_threads = 0;          // slots per engine; 0 -> hardware concurrency
  std::uint64_t root_seed = 0;  // per-stream seeds derived from this
  double smoothing_eps = gauss::kDefaultSmoothingEps;
  int base_precision = 64;      // precision of the candidate base samplers
};

class GaussianService {
 public:
  /// `registry` (not owned) supplies base samplers and cached recipes; it
  /// must outlive the service.
  explicit GaussianService(SamplerRegistry& registry,
                           ServiceOptions options = {});

  /// The recipe that does / would serve this target (plans and caches it,
  /// but does not spin up engines).
  gauss::ConvolutionRecipe plan(double sigma, double center = 0.0);

  /// Fill `out` with samples from (approximately) D_{sigma', center}, where
  /// sigma' = plan(sigma, center).achieved_sigma >= sigma. First call for a
  /// target synthesizes/loads its base sampler and starts its engines;
  /// later calls continue the same streams. Thread-safe; requests for
  /// different targets proceed in parallel.
  void sample(double sigma, double center, std::span<std::int32_t> out);
  std::vector<std::int32_t> sample(double sigma, double center,
                                   std::size_t n);

  /// Number of distinct targets materialized so far.
  std::size_t num_streams() const;

  /// Lifetime count of samples handed out across every target (failed
  /// requests count nothing).
  std::uint64_t samples_served() const {
    return samples_served_.load(std::memory_order_relaxed);
  }

  const ServiceOptions& options() const { return options_; }

 private:
  struct Stream {
    gauss::ConvolutionRecipe recipe;
    conv::BatchConvolver convolver;
    std::unique_ptr<SamplerEngine> eng1, eng2;  // the two base streams
    prng::ChaCha20Source rounding;              // Bernoulli(frac) words
    std::vector<std::int32_t> buf1, buf2;
    std::mutex mu;  // serializes requests per target

    Stream(gauss::ConvolutionRecipe r, std::uint64_t rounding_seed)
        : recipe(std::move(r)),
          convolver(recipe.k, recipe.shift_int, recipe.shift_frac),
          rounding(rounding_seed) {}
  };

  Stream& stream_for(double sigma, double center);

  SamplerRegistry* registry_;
  ServiceOptions options_;
  mutable std::mutex mu_;  // guards streams_ map shape
  std::map<std::string, std::unique_ptr<Stream>> streams_;  // by recipe key
  std::atomic<std::uint64_t> samples_served_{0};
};

}  // namespace cgs::engine
