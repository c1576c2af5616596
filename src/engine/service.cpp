#include "engine/service.h"

#include <algorithm>

#include "common/check.h"
#include "prng/splitmix.h"
#include "serial/serial.h"

namespace cgs::engine {

namespace {

// Cap the per-request staging buffers: a 100M-sample request should stream
// through bounded memory, not allocate two 400MB scratch vectors.
constexpr std::size_t kMaxChunk = std::size_t{1} << 20;

}  // namespace

GaussianService::GaussianService(SamplerRegistry& registry,
                                 ServiceOptions options)
    : registry_(&registry), options_(options) {
  CGS_CHECK(options_.base_precision >= 1);
}

gauss::ConvolutionRecipe GaussianService::plan(double sigma, double center) {
  return registry_->get_recipe(sigma, center, options_.smoothing_eps,
                               options_.base_precision);
}

GaussianService::Stream& GaussianService::stream_for(double sigma,
                                                     double center) {
  const std::string key = recipe_cache_key(
      sigma, center, options_.smoothing_eps, options_.base_precision);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = streams_.find(key); it != streams_.end()) return *it->second;
  }

  // Materialize outside the map lock: base synthesis for one target must
  // not block requests against already-warm targets.
  gauss::ConvolutionRecipe recipe = registry_->get_recipe(
      sigma, center, options_.smoothing_eps, options_.base_precision);
  auto synth = registry_->get(recipe.base);

  // Independent, order-insensitive seeds: mix the root seed with the
  // canonical key's hash, then split into the three per-stream seeds. Two
  // targets collide only if their keys do, i.e. never.
  const std::uint64_t key_hash = serial::fnv1a64(std::span(
      reinterpret_cast<const std::uint8_t*>(key.data()), key.size()));
  prng::SplitMix64Source seeder(options_.root_seed ^ key_hash);
  const std::uint64_t seed1 = seeder.next_word();
  const std::uint64_t seed2 = seeder.next_word();
  const std::uint64_t rounding_seed = seeder.next_word();

  auto stream = std::make_unique<Stream>(std::move(recipe), rounding_seed);
  EngineOptions eng;
  eng.backend = options_.backend;
  eng.num_threads = options_.num_threads;
  eng.root_seed = seed1;
  // Every engine over one base shares the registry's kernel for it.
  eng.registry = registry_;
  stream->eng1 = std::make_unique<SamplerEngine>(synth, eng);
  eng.root_seed = seed2;
  stream->eng2 = std::make_unique<SamplerEngine>(synth, eng);

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = streams_.emplace(key, std::move(stream));
  // A concurrent first request for the same target may have won the race;
  // its stream (identical by construction) serves both callers.
  (void)inserted;
  return *it->second;
}

void GaussianService::sample(double sigma, double center,
                             std::span<std::int32_t> out) {
  if (out.empty()) return;
  Stream& s = stream_for(sigma, center);
  std::lock_guard<std::mutex> lock(s.mu);
  for (std::size_t pos = 0; pos < out.size(); pos += kMaxChunk) {
    const std::size_t n = std::min(kMaxChunk, out.size() - pos);
    const std::span<std::int32_t> dst = out.subspan(pos, n);
    s.buf1.resize(n);
    s.buf2.resize(n);
    s.eng1->sample(s.buf1);
    s.eng2->sample(s.buf2);
    s.convolver.combine(s.buf1, s.buf2, s.rounding, dst);
  }
  // Counted only once every sample exists: a request that fails (planning
  // rejects the target, say) served nothing.
  samples_served_.fetch_add(out.size(), std::memory_order_relaxed);
}

std::vector<std::int32_t> GaussianService::sample(double sigma, double center,
                                                  std::size_t n) {
  std::vector<std::int32_t> out(n);
  sample(sigma, center, out);
  return out;
}

std::size_t GaussianService::num_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return streams_.size();
}

}  // namespace cgs::engine
