// Arbitrary-(sigma, c) service: recipe planning (smoothing-aware base/stride
// choice), canonical recipe cache keys, the registry's recipe cache
// hierarchy, GaussianService batch sampling determinism, and the chi-square
// + Renyi acceptance of a non-synthesized target.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "ct/compiled_sampler.h"
#include "engine/registry.h"
#include "engine/service.h"
#include "serial/formats.h"
#include "serial/serial.h"
#include "stats/acceptance.h"

namespace cgs::engine {
namespace {

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "cgs-service-" + name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

// One cache dir shared by the service tests in this process so the sigma_21
// base synthesizes once and warm-loads everywhere else.
const std::string& shared_dir() {
  static const std::string dir = fresh_dir("shared");
  return dir;
}

// ------------------------------------------------------------ recipe keys ---

TEST(RecipeKey, CanonicalAndFilenameSafe) {
  const std::string k = recipe_cache_key(271.4, 0.5);
  EXPECT_EQ(k, recipe_cache_key(271.4, 0.5));  // bit-identical inputs alias
  EXPECT_EQ(k.find('/'), std::string::npos);
  EXPECT_EQ(k.find(' '), std::string::npos);

  // Both spellings of zero are one center.
  EXPECT_EQ(recipe_cache_key(10.0, 0.0), recipe_cache_key(10.0, -0.0));

  // Every field is keyed.
  EXPECT_NE(recipe_cache_key(271.5, 0.5), k);
  EXPECT_NE(recipe_cache_key(271.4, 0.25), k);
  EXPECT_NE(recipe_cache_key(271.4, 0.5, 0x1p-32), k);
  EXPECT_NE(recipe_cache_key(271.4, 0.5, gauss::kDefaultSmoothingEps, 48), k);

  // A nearby-but-different double is a different key (no lossy rounding).
  EXPECT_NE(recipe_cache_key(std::nextafter(271.4, 272.0), 0.5), k);

  EXPECT_THROW(recipe_cache_key(0.0, 0.0), Error);
  EXPECT_THROW(recipe_cache_key(-3.0, 0.0), Error);
  EXPECT_THROW(recipe_cache_key(std::nan(""), 0.0), Error);
  EXPECT_THROW(
      recipe_cache_key(1.0, std::numeric_limits<double>::infinity()), Error);
}

// --------------------------------------------------------------- planning ---

TEST(RecipePlanning, SmoothingAwareChoiceForIssueTarget) {
  const auto bases = gauss::default_recipe_bases(64);
  const auto r = gauss::plan_recipe(271.4, 0.5, bases);

  // Every accepted plan must satisfy the comb-smoothing bound.
  const double eta = gauss::smoothing_eta(r.eps);
  EXPECT_GE(r.base.sigma(), r.k * eta);
  EXPECT_GE(r.achieved_sigma, 271.4);
  EXPECT_NEAR(r.achieved_sigma,
              conv::ConvolutionSampler::combined_sigma(r.base.sigma(), r.k),
              1e-9);
  // The ladder covers this target to about a percent, far better than the
  // 12% the nearest paper set (sigma_215, k=1) would give.
  EXPECT_LT(r.sigma_loss, 0.02);
  EXPECT_EQ(r.shift_int, 0);
  EXPECT_DOUBLE_EQ(r.shift_frac, 0.5);
}

TEST(RecipePlanning, NegativeAndIntegerCenters) {
  const auto bases = gauss::default_recipe_bases(64);
  const auto r = gauss::plan_recipe(50.0, -2.25, bases);
  EXPECT_EQ(r.shift_int, -3);
  EXPECT_DOUBLE_EQ(r.shift_frac, 0.75);

  const auto ri = gauss::plan_recipe(50.0, -7.0, bases);
  EXPECT_EQ(ri.shift_int, -7);
  EXPECT_DOUBLE_EQ(ri.shift_frac, 0.0);
}

TEST(RecipePlanning, TargetBelowEveryBaseStillServedAtK1) {
  const auto bases = gauss::default_recipe_bases(64);
  const auto r = gauss::plan_recipe(1.0, 0.0, bases);
  EXPECT_EQ(r.k, 1);
  // Overshoot is honest: smallest base * sqrt(2), loss reported.
  EXPECT_NEAR(r.achieved_sigma, 2.0 * std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(r.sigma_loss, r.achieved_sigma - 1.0, 1e-9);
}

TEST(RecipePlanning, RejectsDegenerateTargets) {
  const auto bases = gauss::default_recipe_bases(64);
  EXPECT_THROW(gauss::plan_recipe(0.0, 0.0, bases), Error);
  EXPECT_THROW(gauss::plan_recipe(-5.0, 0.0, bases), Error);
  EXPECT_THROW(
      gauss::plan_recipe(std::numeric_limits<double>::infinity(), 0.0, bases),
      Error);
  EXPECT_THROW(gauss::plan_recipe(10.0, std::nan(""), bases), Error);
  EXPECT_THROW(gauss::plan_recipe(10.0, 0.0, {}), Error);
  // A target no candidate can smooth its way to.
  EXPECT_THROW(gauss::plan_recipe(1e9, 0.0, bases), Error);
}

// ---------------------------------------------------- registry recipe cache ---

TEST(RecipeCache, MemoDiskHierarchyAndRoundTrip) {
  const std::string dir = fresh_dir("recipes");
  SamplerRegistry::Source src;

  SamplerRegistry reg({.cache_dir = dir});
  const auto planned = reg.get_recipe(271.4, 0.5, gauss::kDefaultSmoothingEps,
                                      64, &src);
  EXPECT_EQ(src, SamplerRegistry::Source::kSynthesized);  // freshly planned
  reg.get_recipe(271.4, 0.5, gauss::kDefaultSmoothingEps, 64, &src);
  EXPECT_EQ(src, SamplerRegistry::Source::kMemory);

  // A second registry ("new process") loads the persisted frame.
  SamplerRegistry warm({.cache_dir = dir});
  const auto loaded = warm.get_recipe(271.4, 0.5, gauss::kDefaultSmoothingEps,
                                      64, &src);
  EXPECT_EQ(src, SamplerRegistry::Source::kDisk);
  EXPECT_EQ(loaded.k, planned.k);
  EXPECT_EQ(loaded.base.sigma_num, planned.base.sigma_num);
  EXPECT_DOUBLE_EQ(loaded.achieved_sigma, planned.achieved_sigma);
  EXPECT_DOUBLE_EQ(loaded.shift_frac, planned.shift_frac);
  EXPECT_EQ(loaded.shift_int, planned.shift_int);
}

TEST(RecipeCache, CorruptedOrMisfiledFramesReplan) {
  const std::string dir = fresh_dir("recipes-bad");
  const std::string key = recipe_cache_key(40.0, 0.0);
  const std::string path = dir + "/" + key + ".cgs";
  SamplerRegistry::Source src;

  {  // Seed, then corrupt a payload byte.
    SamplerRegistry reg({.cache_dir = dir});
    reg.get_recipe(40.0, 0.0);
    auto bytes = *serial::read_file(path);
    bytes[bytes.size() - 2] ^= 0x10;
    ASSERT_TRUE(serial::write_file_atomic(path, bytes));
    SamplerRegistry reg2({.cache_dir = dir});
    reg2.get_recipe(40.0, 0.0, gauss::kDefaultSmoothingEps, 64, &src);
    EXPECT_EQ(src, SamplerRegistry::Source::kSynthesized);
  }
  {  // A valid frame misfiled under another target's key must be a miss.
    SamplerRegistry reg({.cache_dir = dir});
    reg.get_recipe(40.0, 0.0);
    std::filesystem::copy_file(path,
                               dir + "/" + recipe_cache_key(80.0, 0.0) + ".cgs");
    SamplerRegistry reg2({.cache_dir = dir});
    const auto r = reg2.get_recipe(80.0, 0.0, gauss::kDefaultSmoothingEps, 64,
                                   &src);
    EXPECT_EQ(src, SamplerRegistry::Source::kSynthesized);
    EXPECT_GE(r.achieved_sigma, 80.0);
  }
}

TEST(RecipeCache, SerialRejectsInconsistentFrames) {
  auto good = gauss::plan_recipe(100.0, 0.25, gauss::default_recipe_bases(64));
  auto bytes = serial::serialize(good);
  EXPECT_EQ(serial::deserialize_recipe(bytes).k, good.k);

  auto bad = good;
  bad.k = 0;  // stride below 1 must not deserialize
  EXPECT_THROW(serial::deserialize_recipe(serial::serialize(bad)), Error);
  bad = good;
  bad.achieved_sigma = good.target_sigma - 1.0;  // achieved < target
  EXPECT_THROW(serial::deserialize_recipe(serial::serialize(bad)), Error);
  // Individually valid fields whose combination overflows the combine: a
  // max-stride k over the widest base's support must not load.
  bad = good;
  bad.base = gauss::GaussianParams::sigma_215(64);
  bad.k = conv::ConvolutionSampler::max_stride();
  bad.achieved_sigma = 1e9;
  bad.target_sigma = 1e8;
  EXPECT_THROW(serial::deserialize_recipe(serial::serialize(bad)), Error);
  // Shift fields are derived from the center; a frame that disagrees with
  // itself (wrong-centered serving, or a combine-overflowing shift_int)
  // must not load.
  bad = good;
  bad.shift_int += 1;
  EXPECT_THROW(serial::deserialize_recipe(serial::serialize(bad)), Error);
  bad = good;
  bad.shift_frac = 0.125;  // good.target_center is 100 @ c=0.25
  EXPECT_THROW(serial::deserialize_recipe(serial::serialize(bad)), Error);
}

// ----------------------------------------------------------------- service ---

TEST(Service, DeterministicAcrossInstancesAndSeedSensitive) {
  SamplerRegistry reg({.cache_dir = shared_dir()});
  // kWide: skip the compiled-kernel host compile; these tests exercise the
  // service logic, not peak throughput.
  ServiceOptions opts{.backend = Backend::kWide, .num_threads = 2,
                      .root_seed = 2019};
  GaussianService a(reg, opts), b(reg, opts);
  const auto va = a.sample(271.4, 0.5, 50000);
  EXPECT_EQ(va, b.sample(271.4, 0.5, 50000));

  ServiceOptions other = opts;
  other.root_seed = 2020;
  GaussianService c(reg, other);
  EXPECT_NE(va, c.sample(271.4, 0.5, 50000));
}

TEST(Service, TwoSlotStreamsPinnedOnTwoTargets) {
  // Golden digests (FNV-1a over little-endian bytes) of a two-slot service
  // on two targets, interleaved: each target's two engines split every
  // request into one slice per slot, so these pin the slot-to-slice
  // mapping that instance-to-instance comparisons cannot see.
  SamplerRegistry reg({.cache_dir = shared_dir()});
  GaussianService svc(reg, {.backend = Backend::kWide, .num_threads = 2,
                            .root_seed = 4051});
  const struct {
    double sigma, center;
    std::uint64_t digest;
  } pins[] = {{271.4, 0.5, 0x52bdc38c591f2337ull},
              {30.0, -7.0, 0xebc7b6dcb4c09b5cull},
              {271.4, 0.5, 0x3a1644dcbcf5f130ull}};
  for (const auto& pin : pins) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::int32_t v : svc.sample(pin.sigma, pin.center, 50000))
      for (int i = 0; i < 4; ++i) {
        h ^= (static_cast<std::uint32_t>(v) >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
      }
    EXPECT_EQ(h, pin.digest) << "sigma=" << pin.sigma << std::hex
                             << " got 0x" << h;
  }
}

TEST(Service, StreamsMaterializeLazilyPerTarget) {
  SamplerRegistry reg({.cache_dir = shared_dir()});
  GaussianService svc(reg, {.backend = Backend::kWide, .num_threads = 1,
                            .root_seed = 1});
  EXPECT_EQ(svc.num_streams(), 0u);
  (void)svc.plan(271.4, 0.5);  // planning alone spins up nothing
  EXPECT_EQ(svc.num_streams(), 0u);
  (void)svc.sample(271.4, 0.5, 64);
  EXPECT_EQ(svc.num_streams(), 1u);
  (void)svc.sample(271.4, 0.5, 64);
  EXPECT_EQ(svc.num_streams(), 1u);  // reused, not rebuilt
  (void)svc.sample(30.0, -7.0, 64);
  EXPECT_EQ(svc.num_streams(), 2u);
  svc.sample(271.4, 0.5, std::span<std::int32_t>{});  // empty request: no-op
  EXPECT_EQ(svc.num_streams(), 2u);
}

TEST(Service, FailedRequestsAreNotCountedAsServed) {
  // Planning rejects each of these targets before any sample exists, so
  // neither the lifetime counter (cgs_gauss_samples_served_total under a
  // dispatcher) nor the stream table may move.
  SamplerRegistry reg({.cache_dir = shared_dir()});
  GaussianService svc(reg, {.backend = Backend::kWide, .num_threads = 1,
                            .root_seed = 3});
  for (const double sigma : {-1.0, 0.0, 1e9})
    EXPECT_THROW((void)svc.sample(sigma, 0.0, 1000), Error) << sigma;
  EXPECT_EQ(svc.num_streams(), 0u);
  EXPECT_EQ(svc.samples_served(), 0u);
  (void)svc.sample(30.0, -7.0, 1000);
  EXPECT_EQ(svc.samples_served(), 1000u);
}

TEST(Service, IntegerCenterMomentsAndShift) {
  SamplerRegistry reg({.cache_dir = shared_dir()});
  GaussianService svc(reg, {.backend = Backend::kWide, .num_threads = 2,
                            .root_seed = 77});
  const auto recipe = svc.plan(30.0, -7.0);
  const auto v = svc.sample(30.0, -7.0, 200000);
  double mean = 0;
  for (auto x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0;
  for (auto x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  // Standard error of the mean is sigma/sqrt(n) ~ 0.07; allow 5 SE.
  EXPECT_NEAR(mean, -7.0, 0.35);
  EXPECT_NEAR(std::sqrt(var) / recipe.achieved_sigma, 1.0, 0.02);
}

// The ISSUE acceptance criterion: a non-synthesized target (sigma=271.4,
// c=0.5) served in batch passes chi-square + Renyi acceptance.
TEST(Service, NonSynthesizedTargetPassesAcceptance) {
  SamplerRegistry reg({.cache_dir = shared_dir()});
  GaussianService svc(reg, {.backend = Backend::kWide, .num_threads = 2,
                            .root_seed = 4242});
  const auto recipe = svc.plan(271.4, 0.5);
  const auto v = svc.sample(271.4, 0.5, 400000);

  const gauss::ProbMatrix base(recipe.base);
  const auto acc = stats::accept_convolution(v, base, recipe);
  EXPECT_TRUE(acc.accepted()) << acc.describe();
  EXPECT_GE(acc.chi.p_value, 1e-4) << acc.describe();
  EXPECT_LE(acc.renyi, 1.0 + 1e-3) << acc.describe();
}

// -------------------------------------------- cross-backend differential ---

// The engine consumes randomness in the wide order on every backend, so
// the whole service stack above it — recipes, convolver, rounding — must
// produce bit-identical streams whichever backend serves a target. A
// (sigma, c) grid covering integer/fractional/negative centers and both
// synthesized-adjacent and far targets, differentially across compiled
// (when a host compiler exists) and interpreted.
TEST(ServiceBackendDifferential, IdenticalStreamsAcrossBackendsOnSigmaCGrid) {
  SamplerRegistry reg({.cache_dir = shared_dir()});
  const struct {
    double sigma, center;
  } grid[] = {{20.0, 0.0}, {20.0, 0.5}, {271.4, 0.5}, {64.0, -3.25}};

  for (const auto& target : grid) {
    // The compiled backend joins on the first grid point only — hosting
    // the netlist C costs seconds per target and the kernel is already
    // held bit-identical to the interpreters at sampler level
    // (test_compiled); one service-level point pins the integration.
    std::vector<Backend> backends = {Backend::kWide};
    if (&target == &grid[0] && ct::CompiledKernel::is_available())
      backends.push_back(Backend::kCompiled);

    std::vector<std::vector<std::int32_t>> streams;
    for (const Backend backend : backends) {
      GaussianService svc(reg, {.backend = backend, .num_threads = 2,
                                .root_seed = 616});
      streams.push_back(svc.sample(target.sigma, target.center, 40000));
    }
    for (std::size_t b = 1; b < streams.size(); ++b)
      EXPECT_EQ(streams[0], streams[b])
          << "sigma=" << target.sigma << " c=" << target.center
          << " backend " << backend_name(backends[b]) << " diverged from "
          << backend_name(backends[0]);
  }
  // The compiled service's two engines share the registry's one kernel.
  if (ct::CompiledKernel::is_available()) {
    EXPECT_EQ(reg.kernel_cache_stats().misses, 1u);
    EXPECT_EQ(reg.kernel_cache_stats().hits, 1u);
  }
}

// Chi-square + Renyi acceptance on the service path the verification lane
// sits next to: what the dispatcher's gauss lane serves while sign/verify
// traffic runs must still be the designed distribution, whichever
// backend. (The signing-side base streams are covered by the signature
// verification itself: every signature in test_verify's 1k differential
// is a draw from these streams that verified.)
TEST(ServiceBackendDifferential, GridTargetPassesAcceptanceOnBothInterpreters) {
  // On the interpreted engine: the compiled one emits the identical stream
  // (the grid test above; Engine.StreamsMatchGoldenDigests in test_engine)
  // and would cost this target a host compile of its base kernel.
  SamplerRegistry reg({.cache_dir = shared_dir()});
  GaussianService svc(reg, {.backend = Backend::kWide, .num_threads = 2,
                            .root_seed = 909});
  const auto recipe = svc.plan(64.0, -3.25);
  const auto v = svc.sample(64.0, -3.25, 200000);
  const gauss::ProbMatrix base(recipe.base);
  const auto acc = stats::accept_convolution(v, base, recipe);
  EXPECT_TRUE(acc.accepted()) << acc.describe();
  EXPECT_GE(acc.chi.p_value, 1e-4) << acc.describe();
}

TEST(Acceptance, RenyiRejectsCombViolatingPlan) {
  // A hand-built recipe violating the smoothing bound (sigma_0=2, k=45):
  // the convolution is a spiky comb; the design-vs-ideal Renyi check must
  // reject it even though a chi-square against its own design would pass.
  gauss::ConvolutionRecipe bad;
  bad.base = gauss::GaussianParams::sigma_2(64);
  bad.k = 45;
  bad.target_sigma = 90.0;
  bad.achieved_sigma =
      conv::ConvolutionSampler::combined_sigma(bad.base.sigma(), bad.k);
  bad.sigma_loss = (bad.achieved_sigma - bad.target_sigma) / bad.target_sigma;

  const gauss::ProbMatrix base(bad.base);
  const auto design = stats::convolution_design_pmf(base, bad);
  const auto ideal = stats::ideal_gaussian_pmf(
      bad.achieved_sigma, 0.0, design.min_value, design.max_value());
  EXPECT_GT(stats::renyi_divergence(design, ideal, 2.0), 1.5);

  // And the planner refuses to produce such a pair in the first place.
  const auto planned =
      gauss::plan_recipe(90.0, 0.0, gauss::default_recipe_bases(64));
  EXPECT_GE(planned.base.sigma(),
            planned.k * gauss::smoothing_eta(planned.eps));
}

}  // namespace
}  // namespace cgs::engine
