#pragma once
// The offline/online split the paper assumes but the library never had:
// Boolean-function synthesis (Quine–McCluskey exact minimization over a
// 128-bit probability matrix) is expensive and deterministic, so do it once
// and persist the resulting straight-line netlist. SamplerRegistry is the
// process-wide materialization point:
//
//   get(params, config)
//     -> in-process memo hit            (atomically deduplicated per key)
//     -> on-disk cache hit              (versioned checksummed frame,
//                                        serial/formats.h)
//     -> synthesize + persist           (atomic write, best effort)
//
// Keys are a canonical filename-safe rendering of every field of
// (GaussianParams, SynthesisConfig), so two configurations never alias.
// Corrupted, truncated or version-skewed cache files are rejected by the
// serial layer and silently fall back to re-synthesis (then overwritten).
//
// The registry also memoizes the host-compiled kernel of each netlist and
// lane width (kernel()): with use_disk it is loaded from <cache_dir>/kernels,
// keyed by the emitted C, the compiler, the flag rung and the CPU signature
// (ct/kernel_cache.h), so a kernel compiles once per machine rather than
// once per process.

#include <memory>
#include <string>

#include "ct/synthesis.h"
#include "gauss/params.h"
#include "gauss/recipe.h"
#include "obs/metric.h"
#include "store/bounded_cache.h"

namespace cgs::ct {
class CompiledKernel;
}

namespace cgs::engine {

/// Canonical cache key: encodes every distribution and synthesis field,
/// filename-safe ([a-z0-9._-] only).
std::string cache_key(const gauss::GaussianParams& params,
                      const ct::SynthesisConfig& config = {});

/// Canonical key for an arbitrary-(sigma, c) recipe request against the
/// default candidate base set at `base_precision`. Doubles are keyed by
/// their IEEE-754 bit pattern (after collapsing -0 to +0), so two requests
/// alias exactly when the planner would see identical inputs; non-finite
/// or non-positive sigma throws. Filename-safe like cache_key().
std::string recipe_cache_key(double target_sigma, double target_center,
                             double eps = gauss::kDefaultSmoothingEps,
                             int base_precision = 64);

/// Cache directory resolution: $CGS_CACHE_DIR if set, else
/// $XDG_CACHE_HOME/cgs-samplers, else $HOME/.cache/cgs-samplers, else
/// ./.cgs-cache.
std::string default_cache_dir();

class SamplerRegistry {
 public:
  struct Options {
    std::string cache_dir;  // empty -> default_cache_dir()
    bool use_disk = true;   // false -> in-process memoization only
    /// Budget for the in-process netlist memo. Default unbounded (legacy
    /// behavior); under a budget an evicted netlist warm-starts from its
    /// per-key disk frame instead of a re-synthesis.
    store::CacheBudget netlist_cache;
    /// Budget for the in-process recipe memo (same warm-start path).
    store::CacheBudget recipe_cache;
  };

  /// Where a get() result was materialized from.
  enum class Source { kMemory, kDisk, kSynthesized };

  SamplerRegistry() : SamplerRegistry(Options{}) {}
  explicit SamplerRegistry(Options options);

  using SamplerPtr = std::shared_ptr<const ct::SynthesizedSampler>;

  /// The sampler for (params, config): memoized, disk-backed, synthesized on
  /// first contact. Repeat calls return the same instance. Thread-safe;
  /// concurrent first calls for one key synthesize exactly once (other keys
  /// proceed in parallel). `source`, when non-null, reports where this call's
  /// result came from.
  SamplerPtr get(const gauss::GaussianParams& params,
                 const ct::SynthesisConfig& config = {},
                 Source* source = nullptr);

  const std::string& cache_dir() const { return options_.cache_dir; }

  /// The planned recipe for an arbitrary (sigma, center) target over the
  /// default candidate bases at `base_precision`: memoized, disk-backed
  /// (one small kRecipe frame per key, next to the sampler frames), planned
  /// on first contact. Misfiled or corrupted frames fall back to replanning
  /// exactly like sampler frames fall back to re-synthesis. Thread-safe.
  gauss::ConvolutionRecipe get_recipe(double target_sigma,
                                      double target_center,
                                      double eps = gauss::kDefaultSmoothingEps,
                                      int base_precision = 64,
                                      Source* source = nullptr);

  using KernelPtr = std::shared_ptr<const ct::CompiledKernel>;

  /// The host-compiled kernel for `synth`'s netlist with the one entry
  /// point for `lanes` lanes (64, 256 or 512; ct/compiled_sampler.h). The
  /// in-process memo is keyed by a hash of the netlist's structure and the
  /// width, so a hit emits no C; a miss emits the source and, with
  /// use_disk, loads it from <cache_dir>/kernels (verified owner, mode and
  /// hash) instead of recompiling, then persists it there on a compile.
  /// Thread-safe and single-flight per key. Throws cgs::Error when there is
  /// no host compiler or no compile rung succeeds.
  KernelPtr kernel(const ct::SynthesizedSampler& synth, int lanes);

  /// Drop the in-process memo (disk cache untouched). Mostly for tests and
  /// cache-hierarchy benches.
  void clear_memory();

  /// Netlist (synthesized-sampler) cache totals: a hit is a get() served
  /// from the memo or from a disk frame, a miss is a synthesis.
  obs::CacheStats netlist_cache_stats() const;
  /// Recipe cache totals: a hit is a get_recipe() served from the memo or
  /// a disk frame, a miss is a plan_recipe run.
  obs::CacheStats recipe_cache_stats() const;
  /// Kernel cache totals: a warm start is a kernel loaded from
  /// <cache_dir>/kernels, any other miss is a compile; bytes are the sizes
  /// of the loaded shared objects.
  obs::CacheStats kernel_cache_stats() const;

  /// Process-wide instance (reads $CGS_CACHE_DIR at first use).
  static SamplerRegistry& global();

 private:
  // All three memos ride the shared bounded-cache core: single-flight
  // deduplication (a failed synthesis is evicted, so the next request
  // retries instead of replaying the failure), 2Q eviction under a budget,
  // and hit/miss/eviction/warm-start accounting. The per-key disk frames
  // are the persistent layer: an evicted entry's next get() decodes the
  // frame (warm start) rather than re-synthesizing. Kernels are unbounded.
  using NetlistCache = store::BoundedCache<std::string, ct::SynthesizedSampler>;
  using RecipeCache = store::BoundedCache<std::string, gauss::ConvolutionRecipe>;
  using KernelCache = store::BoundedCache<std::string, ct::CompiledKernel>;

  Options options_;
  NetlistCache netlists_;
  RecipeCache recipes_;
  KernelCache kernels_;
};

}  // namespace cgs::engine
