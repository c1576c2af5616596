#include "engine/registry.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "ct/kernel_cache.h"
#include "gauss/probmatrix.h"
#include "serial/formats.h"
#include "serial/serial.h"

namespace cgs::engine {

namespace {

// Bump whenever ct::synthesize (or anything upstream of it: leaf
// enumeration, minimization, netlist building, the probability matrix) can
// produce a different netlist for the same (params, config) — the frame's
// kFormatVersion only guards the payload *encoding*, not the algorithm, so
// without this a warm cache would serve pre-fix netlists forever.
constexpr int kSynthesisRevision = 1;

// Same idea for recipes: bump when gauss::plan_recipe (or the default
// candidate base set it scores) changes, so a warm cache never serves a
// recipe the current planner would no longer produce.
constexpr int kRecipeRevision = 1;

// Canonical filename-safe rendering of a double: the IEEE-754 bit pattern
// in lowercase hex, with -0 collapsed to +0 so the two spellings of zero
// share one cache entry.
std::string hex_bits(double v) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << bits;
  return os.str();
}

// Approximate resident cost of a synthesized sampler: the netlist's node
// and output arrays plus its eval scratch dominate.
std::size_t sampler_footprint_bytes(const ct::SynthesizedSampler& s) {
  return sizeof(ct::SynthesizedSampler) +
         s.netlist.nodes().capacity() * sizeof(bf::Node) +
         s.netlist.outputs().capacity() * sizeof(std::int32_t) +
         s.netlist.nodes().size() * sizeof(std::uint64_t);
}

// The kernel memo key: hash64 of the netlist's structure (input count,
// every node's op and operands, the outputs), which is all the emitted C
// depends on, plus the lane width. Deriving it emits nothing.
std::string kernel_memo_key(const bf::Netlist& nl, int lanes) {
  std::vector<std::uint32_t> words{
      static_cast<std::uint32_t>(nl.num_inputs()),
      static_cast<std::uint32_t>(nl.nodes().size())};
  words.reserve(2 + 3 * nl.nodes().size() + nl.outputs().size());
  for (const bf::Node& n : nl.nodes())
    words.insert(words.end(), {static_cast<std::uint32_t>(n.op),
                               static_cast<std::uint32_t>(n.a),
                               static_cast<std::uint32_t>(n.b)});
  for (const std::int32_t o : nl.outputs())
    words.push_back(static_cast<std::uint32_t>(o));
  const std::uint64_t h = serial::hash64(std::span(
      reinterpret_cast<const std::uint8_t*>(words.data()),
      words.size() * sizeof(std::uint32_t)));
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << h << "-w"
     << std::dec << lanes;
  return os.str();
}

SamplerRegistry::Source to_source(
    store::BoundedCache<std::string, ct::SynthesizedSampler>::Outcome o) {
  using Outcome =
      store::BoundedCache<std::string, ct::SynthesizedSampler>::Outcome;
  switch (o) {
    case Outcome::kHit:
      return SamplerRegistry::Source::kMemory;
    case Outcome::kWarmStart:
      return SamplerRegistry::Source::kDisk;
    case Outcome::kBuilt:
      break;
  }
  return SamplerRegistry::Source::kSynthesized;
}

SamplerRegistry::Source to_source(
    store::BoundedCache<std::string, gauss::ConvolutionRecipe>::Outcome o) {
  using Outcome =
      store::BoundedCache<std::string, gauss::ConvolutionRecipe>::Outcome;
  switch (o) {
    case Outcome::kHit:
      return SamplerRegistry::Source::kMemory;
    case Outcome::kWarmStart:
      return SamplerRegistry::Source::kDisk;
    case Outcome::kBuilt:
      break;
  }
  return SamplerRegistry::Source::kSynthesized;
}

}  // namespace

std::string cache_key(const gauss::GaussianParams& p,
                      const ct::SynthesisConfig& c) {
  std::ostringstream os;
  os << "r" << kSynthesisRevision << "-";
  os << "g" << p.sigma_num << "x" << p.sigma_den << "-s" << p.sigma_sq_num
     << "x" << p.sigma_sq_den << "-t" << p.tau << "-n" << p.precision
     << (p.normalization == gauss::Normalization::kDiscrete ? "-nd" : "-nc")
     << (p.rounding == gauss::Rounding::kTruncate ? "rt" : "rn") << "-m"
     << static_cast<int>(c.mode) << (c.emit_valid_bit ? "v1" : "v0")
     << (c.cse ? "c1" : "c0") << "-x" << c.exact_max_vars << "-q"
     << c.qm_node_budget;
  return os.str();
}

std::string recipe_cache_key(double target_sigma, double target_center,
                             double eps, int base_precision) {
  CGS_CHECK_MSG(std::isfinite(target_sigma) && target_sigma > 0.0,
                "recipe key: sigma must be finite and positive");
  CGS_CHECK_MSG(std::isfinite(target_center), "recipe key: non-finite center");
  CGS_CHECK(eps > 0.0 && eps < 1.0 && base_precision >= 1);
  std::ostringstream os;
  os << "recipe-r" << kRecipeRevision << "-s" << hex_bits(target_sigma)
     << "-c" << hex_bits(target_center) << "-e" << hex_bits(eps) << "-p"
     << base_precision;
  return os.str();
}

std::string default_cache_dir() {
  if (const char* env = std::getenv("CGS_CACHE_DIR"); env && *env) return env;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
    return std::string(xdg) + "/cgs-samplers";
  if (const char* home = std::getenv("HOME"); home && *home)
    return std::string(home) + "/.cache/cgs-samplers";
  return ".cgs-cache";
}

SamplerRegistry::SamplerRegistry(Options options)
    : options_(std::move(options)),
      netlists_(options_.netlist_cache),
      recipes_(options_.recipe_cache) {
  if (options_.cache_dir.empty()) options_.cache_dir = default_cache_dir();
}

SamplerRegistry::SamplerPtr SamplerRegistry::get(
    const gauss::GaussianParams& params, const ct::SynthesisConfig& config,
    Source* source) {
  const std::string key = cache_key(params, config);

  // Materialization runs outside the cache lock (single-flight per key): a
  // slow synthesis for one key never blocks lookups — or syntheses — for
  // different keys, and a synthesis that throws is evicted so the next
  // request retries instead of replaying the failure.
  auto pinned = netlists_.get_or_build(key, [&]() -> NetlistCache::Built {
    namespace fs = std::filesystem;
    const std::string path = options_.cache_dir + "/" + key + ".cgs";

    if (options_.use_disk) {
      if (auto bytes = serial::read_file(path)) {
        try {
          serial::SamplerFrame frame = serial::deserialize_sampler(*bytes);
          // The frame embeds the (params, config) it was synthesized for; a
          // valid file renamed under the wrong key (sync script, manual
          // copy, cache_key format change) must count as a miss, not
          // silently serve the wrong distribution.
          if (cache_key(frame.params, frame.config) == key) {
            auto sampler = std::make_shared<ct::SynthesizedSampler>(
                std::move(frame.sampler));
            const std::size_t cost = sampler_footprint_bytes(*sampler);
            return {std::move(sampler), cost, /*warm_start=*/true};
          }
        } catch (const Error&) {
          // Bad magic / version skew / checksum or shape corruption: treat
          // as a miss, re-synthesize below and overwrite the bad file.
        }
      }
    }

    const gauss::ProbMatrix matrix(params);
    auto sampler = std::make_shared<ct::SynthesizedSampler>(
        ct::synthesize(matrix, config));

    if (options_.use_disk) {
      std::error_code ec;
      fs::create_directories(options_.cache_dir, ec);
      // Persist best-effort: an unwritable cache directory degrades to
      // synthesize-per-process, never to an error.
      if (!ec)
        serial::write_file_atomic(
            path, serial::serialize(params, config, *sampler));
    }
    const std::size_t cost = sampler_footprint_bytes(*sampler);
    return {std::move(sampler), cost, /*warm_start=*/false};
  });

  if (source) *source = to_source(pinned.outcome());
  return pinned.value();
}

gauss::ConvolutionRecipe SamplerRegistry::get_recipe(double target_sigma,
                                                     double target_center,
                                                     double eps,
                                                     int base_precision,
                                                     Source* source) {
  const std::string key =
      recipe_cache_key(target_sigma, target_center, eps, base_precision);

  auto pinned = recipes_.get_or_build(key, [&]() -> RecipeCache::Built {
    namespace fs = std::filesystem;
    const std::string path = options_.cache_dir + "/" + key + ".cgs";
    const std::size_t cost = sizeof(gauss::ConvolutionRecipe) + key.size();
    if (options_.use_disk) {
      if (auto bytes = serial::read_file(path)) {
        try {
          gauss::ConvolutionRecipe cand = serial::deserialize_recipe(*bytes);
          // Like sampler frames: a valid frame misfiled under the wrong key
          // must count as a miss, not serve the wrong target.
          if (recipe_cache_key(cand.target_sigma, cand.target_center,
                               cand.eps, cand.base.precision) == key) {
            return {std::make_shared<gauss::ConvolutionRecipe>(
                        std::move(cand)),
                    cost, /*warm_start=*/true};
          }
        } catch (const Error&) {
          // Corrupted/foreign frame: replan below and overwrite.
        }
      }
    }

    const auto bases = gauss::default_recipe_bases(base_precision);
    auto recipe = std::make_shared<gauss::ConvolutionRecipe>(
        gauss::plan_recipe(target_sigma, target_center, bases, eps));
    if (options_.use_disk) {
      std::error_code ec;
      fs::create_directories(options_.cache_dir, ec);
      if (!ec) serial::write_file_atomic(path, serial::serialize(*recipe));
    }
    return {std::move(recipe), cost, /*warm_start=*/false};
  });

  if (source) *source = to_source(pinned.outcome());
  return *pinned;
}

SamplerRegistry::KernelPtr SamplerRegistry::kernel(
    const ct::SynthesizedSampler& synth, int lanes) {
  auto pinned = kernels_.get_or_build(
      kernel_memo_key(synth.netlist, lanes), [&]() -> KernelCache::Built {
        ct::KernelLoad load = ct::load_or_compile_kernel(
            ct::KernelSource(synth, lanes),
            options_.use_disk ? options_.cache_dir + "/kernels" : "");
        return {std::move(load.kernel), load.bytes, load.warm_start};
      });
  return pinned.value();
}

obs::CacheStats SamplerRegistry::netlist_cache_stats() const {
  return netlists_.stats();
}

obs::CacheStats SamplerRegistry::recipe_cache_stats() const {
  return recipes_.stats();
}

obs::CacheStats SamplerRegistry::kernel_cache_stats() const {
  return kernels_.stats();
}

void SamplerRegistry::clear_memory() {
  netlists_.clear();
  recipes_.clear();
  kernels_.clear();
}

SamplerRegistry& SamplerRegistry::global() {
  static SamplerRegistry* instance = new SamplerRegistry();
  return *instance;
}

}  // namespace cgs::engine
