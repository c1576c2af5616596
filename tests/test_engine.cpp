// Sampler engine subsystem: registry memoization, disk-cache hierarchy
// (synthesize -> persist -> warm load), corruption fallback, the
// per-machine compiled-kernel cache, and the multi-threaded batch sampling
// service.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "ct/batch_sampler.h"
#include "ct/compiled_sampler.h"
#include "ct/kernel_cache.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "gauss/probmatrix.h"
#include "prng/chacha20.h"
#include "prng/splitmix.h"
#include "serial/serial.h"

namespace cgs::engine {
namespace {

gauss::GaussianParams test_params() {
  return gauss::GaussianParams::sigma_2(64);
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "cgs-engine-" + name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CacheKey, EncodesEveryField) {
  const auto base = test_params();
  const ct::SynthesisConfig cfg;
  const std::string k = cache_key(base, cfg);

  auto expect_differs = [&](const gauss::GaussianParams& p,
                            const ct::SynthesisConfig& c) {
    EXPECT_NE(cache_key(p, c), k);
  };

  auto p = base;
  p.sigma_num = 3;
  expect_differs(p, cfg);
  p = base;
  p.precision = 65;
  expect_differs(p, cfg);
  p = base;
  p.tau = 14;
  expect_differs(p, cfg);
  p = base;
  p.normalization = gauss::Normalization::kContinuous;
  expect_differs(p, cfg);
  p = base;
  p.rounding = gauss::Rounding::kNearest;
  expect_differs(p, cfg);

  auto c = cfg;
  c.mode = ct::MinimizeMode::kHeuristic;
  expect_differs(base, c);
  c = cfg;
  c.emit_valid_bit = false;
  expect_differs(base, c);
  c = cfg;
  c.cse = false;
  expect_differs(base, c);
  c = cfg;
  c.exact_max_vars = 10;
  expect_differs(base, c);

  // Filename-safe.
  EXPECT_EQ(k.find('/'), std::string::npos);
  EXPECT_EQ(k.find(' '), std::string::npos);
}

TEST(Registry, RepeatLookupReturnsSameInstance) {
  SamplerRegistry reg({.cache_dir = fresh_dir("memo"), .use_disk = false});
  SamplerRegistry::Source src1, src2;
  auto a = reg.get(test_params(), {}, &src1);
  auto b = reg.get(test_params(), {}, &src2);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(src1, SamplerRegistry::Source::kSynthesized);
  EXPECT_EQ(src2, SamplerRegistry::Source::kMemory);

  // A different config is a different sampler.
  ct::SynthesisConfig heuristic;
  heuristic.mode = ct::MinimizeMode::kHeuristic;
  auto c = reg.get(test_params(), heuristic);
  EXPECT_NE(a.get(), c.get());
}

TEST(Registry, PersistsAndWarmLoadsAcrossInstances) {
  const std::string dir = fresh_dir("warm");
  SamplerRegistry::Source src;

  SamplerRegistry cold({.cache_dir = dir});
  auto synthesized = cold.get(test_params(), {}, &src);
  EXPECT_EQ(src, SamplerRegistry::Source::kSynthesized);
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + cache_key(test_params()) +
                                      ".cgs"));

  // A second registry (a "new process") loads from disk, not synthesis.
  SamplerRegistry warm({.cache_dir = dir});
  auto loaded = warm.get(test_params(), {}, &src);
  EXPECT_EQ(src, SamplerRegistry::Source::kDisk);
  EXPECT_NE(synthesized.get(), loaded.get());  // distinct memo spaces

  // The cache-loaded sampler's output stream is bit-identical to the
  // freshly synthesized one under the same PRNG seed.
  ct::BitslicedSampler a(*synthesized);
  ct::BitslicedSampler b(*loaded);
  prng::ChaCha20Source rng_a(99), rng_b(99);
  std::int32_t batch_a[64], batch_b[64];
  for (int it = 0; it < 100; ++it) {
    ASSERT_EQ(a.sample_batch(rng_a, batch_a), b.sample_batch(rng_b, batch_b));
    for (int lane = 0; lane < 64; ++lane)
      ASSERT_EQ(batch_a[lane], batch_b[lane]) << it << ":" << lane;
  }
}

TEST(Registry, CorruptedCacheFallsBackToSynthesisAndHeals) {
  const std::string dir = fresh_dir("corrupt");
  const std::string path = dir + "/" + cache_key(test_params()) + ".cgs";
  SamplerRegistry::Source src;

  {  // Seed the cache, then corrupt one payload byte.
    SamplerRegistry reg({.cache_dir = dir});
    reg.get(test_params());
    auto bytes = *serial::read_file(path);
    bytes[bytes.size() - 3] ^= 0x40;
    ASSERT_TRUE(serial::write_file_atomic(path, bytes));
  }
  {  // Corruption is detected (checksum), silently re-synthesized...
    SamplerRegistry reg({.cache_dir = dir});
    auto s = reg.get(test_params(), {}, &src);
    EXPECT_EQ(src, SamplerRegistry::Source::kSynthesized);
    ASSERT_NE(s, nullptr);
  }
  {  // ...and the rewritten file serves the next instance warm.
    SamplerRegistry reg({.cache_dir = dir});
    reg.get(test_params(), {}, &src);
    EXPECT_EQ(src, SamplerRegistry::Source::kDisk);
  }
}

TEST(Registry, TruncatedAndForeignFilesRejected) {
  const std::string dir = fresh_dir("trunc");
  const std::string path = dir + "/" + cache_key(test_params()) + ".cgs";
  SamplerRegistry::Source src;

  {  // Truncated frame.
    SamplerRegistry reg({.cache_dir = dir});
    reg.get(test_params());
    auto bytes = *serial::read_file(path);
    bytes.resize(bytes.size() / 2);
    ASSERT_TRUE(serial::write_file_atomic(path, bytes));
    SamplerRegistry reg2({.cache_dir = dir});
    reg2.get(test_params(), {}, &src);
    EXPECT_EQ(src, SamplerRegistry::Source::kSynthesized);
  }
  {  // A file that is not a CGS frame at all (bad magic).
    const std::vector<std::uint8_t> junk = {'n', 'o', 't', ' ', 'c', 'g', 's'};
    ASSERT_TRUE(serial::write_file_atomic(path, junk));
    SamplerRegistry reg({.cache_dir = dir});
    reg.get(test_params(), {}, &src);
    EXPECT_EQ(src, SamplerRegistry::Source::kSynthesized);
  }
}

TEST(Registry, MisfiledCacheEntryIsAMiss) {
  // A structurally valid frame sitting under the WRONG key's filename (a
  // sync script or manual rename) must not be served: the frame's embedded
  // (params, config) binding disagrees with the requested key.
  const std::string dir = fresh_dir("misfile");
  SamplerRegistry::Source src;
  {
    SamplerRegistry reg({.cache_dir = dir});
    reg.get(test_params());
  }
  auto other = gauss::GaussianParams::sigma_1(64);
  std::filesystem::copy_file(dir + "/" + cache_key(test_params()) + ".cgs",
                             dir + "/" + cache_key(other) + ".cgs");
  SamplerRegistry reg({.cache_dir = dir});
  auto s = reg.get(other, {}, &src);
  EXPECT_EQ(src, SamplerRegistry::Source::kSynthesized);
  EXPECT_EQ(s->precision, other.precision);
}

TEST(Registry, ConcurrentFirstLookupSynthesizesOnce) {
  SamplerRegistry reg({.cache_dir = fresh_dir("race"), .use_disk = false});
  constexpr int kThreads = 8;
  std::vector<SamplerRegistry::SamplerPtr> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back(
        [&, i] { results[static_cast<std::size_t>(i)] = reg.get(test_params()); });
  for (auto& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i)
    EXPECT_EQ(results[0].get(), results[static_cast<std::size_t>(i)].get());
}

// ----------------------------------------------------------------- engine ---

class EngineBackends : public ::testing::TestWithParam<Backend> {};

// ----------------------------------------------------------- kernel cache

// A small netlist: its kernel compiles in a fraction of a second.
std::shared_ptr<const ct::SynthesizedSampler> small_synth() {
  static const auto synth = std::make_shared<const ct::SynthesizedSampler>(
      ct::synthesize(gauss::ProbMatrix(gauss::GaussianParams::sigma_1(32)),
                     {}));
  return synth;
}

// A kernel's output (values and valid masks) for a fixed seed, on the
// runner of its width.
struct KernelStreams {
  std::vector<std::int32_t> values;
  std::vector<std::uint64_t> valid;
  bool operator==(const KernelStreams&) const = default;
};

template <typename Word>
KernelStreams runner_streams(
    const std::shared_ptr<const ct::CompiledKernel>& kernel) {
  using Runner = ct::BatchSampler<Word>;
  Runner runner(*small_synth(), kernel);
  prng::ChaCha20Source rng(7);
  KernelStreams s;
  std::int32_t batch[Runner::kBatch];
  for (int it = 0; it < 16; ++it) {
    const auto mask = runner.sample_batch(rng, batch);
    s.values.insert(s.values.end(), batch, batch + Runner::kBatch);
    s.valid.insert(s.valid.end(), mask.begin(), mask.end());
  }
  return s;
}

KernelStreams kernel_streams(
    const std::shared_ptr<const ct::CompiledKernel>& kernel) {
  switch (kernel->lanes()) {
    case 64: return runner_streams<std::uint64_t>(kernel);
    case 256: return runner_streams<ct::Word256>(kernel);
    default: return runner_streams<ct::Word512>(kernel);
  }
}

// The streams of a registry kernel over `dir` at the engine's width, plus
// that registry's kernel-cache totals (the registry and its kernel are gone
// on return).
KernelStreams registry_streams(const std::string& dir, obs::CacheStats& stats,
                               bool use_disk = true) {
  SamplerRegistry reg({.cache_dir = dir, .use_disk = use_disk});
  KernelStreams s =
      kernel_streams(reg.kernel(*small_synth(), ct::host_kernel_lanes()));
  stats = reg.kernel_cache_stats();
  return s;
}

std::vector<std::filesystem::path> kernel_objects(const std::string& dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& e : std::filesystem::directory_iterator(dir + "/kernels"))
    if (e.path().extension() == ".so") out.push_back(e.path());
  return out;
}

std::size_t num_entries(const std::string& path) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(path))
    ++n;
  return n;
}

TEST(KernelCache, WarmLoadIsBitIdenticalToColdCompile) {
  if (!ct::CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("kernel-warm");
  obs::CacheStats st;
  KernelStreams cold;
  {
    SamplerRegistry reg({.cache_dir = dir});
    const int lanes = ct::host_kernel_lanes();
    const auto kernel = reg.kernel(*small_synth(), lanes);
    EXPECT_EQ(kernel->lanes(), lanes);
    EXPECT_EQ(reg.kernel(*small_synth(), lanes).get(), kernel.get());  // hit
    cold = kernel_streams(kernel);
    st = reg.kernel_cache_stats();
  }
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.warm_starts, 0u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);

  // <cache_dir>/kernels is 0700, each object 0600 with a digest sidecar.
  const auto objects = kernel_objects(dir);
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(fs::status(dir + "/kernels").permissions(), fs::perms::owner_all);
  EXPECT_EQ(fs::status(objects[0]).permissions(),
            fs::perms::owner_read | fs::perms::owner_write);
  EXPECT_TRUE(fs::exists(fs::path(objects[0]).replace_extension(".sum")));
  EXPECT_EQ(num_entries(dir + "/kernels"), 2u);  // no staging left behind

  const KernelStreams warm = registry_streams(dir, st);
  EXPECT_EQ(st.warm_starts, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_TRUE(warm == cold);
  fs::remove_all(dir);
}

TEST(KernelCache, CorruptObjectIsRejectedRecompiledAndOverwritten) {
  if (!ct::CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("kernel-corrupt");
  obs::CacheStats st;
  const KernelStreams cold = registry_streams(dir, st);
  const fs::path so = kernel_objects(dir).at(0);
  const auto size = fs::file_size(so);

  for (const bool truncate : {true, false}) {
    SCOPED_TRACE(truncate ? "truncated" : "bit-flipped");
    if (truncate) {
      fs::resize_file(so, size / 2);
    } else {
      std::fstream f(so, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(size / 2));
      const char byte = static_cast<char>(f.get() ^ 0x10);
      f.seekp(static_cast<std::streamoff>(size / 2));
      f.put(byte);
    }
    // Rejected before dlopen (a load would count as a warm start), then
    // recompiled into place ...
    EXPECT_TRUE(registry_streams(dir, st) == cold);
    EXPECT_EQ(st.warm_starts, 0u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(fs::file_size(so), size);
    // ... so the next process warm-loads the repaired object.
    EXPECT_TRUE(registry_streams(dir, st) == cold);
    EXPECT_EQ(st.warm_starts, 1u);
  }
  fs::remove_all(dir);
}

TEST(KernelCache, UntrustedDirectoryOrSymlinkedObjectIsNeverLoaded) {
  if (!ct::CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  namespace fs = std::filesystem;
  const std::string dir = fresh_dir("kernel-trust");
  const std::string kdir = dir + "/kernels";
  obs::CacheStats st;
  const KernelStreams cold = registry_streams(dir, st);
  const fs::path so = kernel_objects(dir).at(0);
  const auto stamp = fs::last_write_time(so);

  for (const fs::perms extra : {fs::perms::group_write, fs::perms::others_write}) {
    fs::permissions(kdir, fs::perms::owner_all | extra, fs::perm_options::replace);
    EXPECT_TRUE(registry_streams(dir, st) == cold);
    EXPECT_EQ(st.warm_starts, 0u);
    EXPECT_EQ(st.misses, 1u);
    // Neither read nor written: the directory is exactly as it was.
    EXPECT_EQ(num_entries(kdir), 2u);
    EXPECT_EQ(fs::last_write_time(so), stamp);
  }
  fs::permissions(kdir, fs::perms::owner_all, fs::perm_options::replace);

  // A valid object of ours behind a symlink is still refused, and the
  // recompile replaces the link with a real file.
  const fs::path real = fs::path(kdir) / "elsewhere.so";
  fs::rename(so, real);
  fs::create_symlink(real.filename(), so);
  EXPECT_TRUE(registry_streams(dir, st) == cold);
  EXPECT_EQ(st.warm_starts, 0u);
  EXPECT_FALSE(fs::is_symlink(so));
  EXPECT_TRUE(registry_streams(dir, st) == cold);
  EXPECT_EQ(st.warm_starts, 1u);
  fs::remove_all(dir);
}

TEST(KernelCache, KeyCoversSourceCompilerRungAndCpu) {
  using ct::FlagRung;
  const std::string k =
      ct::kernel_cache_key(1, "gcc 12.2.0", FlagRung::kNative, "x86:Intel:a");
  EXPECT_EQ(k, ct::kernel_cache_key(1, "gcc 12.2.0", FlagRung::kNative,
                                    "x86:Intel:a"));
  EXPECT_NE(k, ct::kernel_cache_key(2, "gcc 12.2.0", FlagRung::kNative,
                                    "x86:Intel:a"));
  EXPECT_NE(k, ct::kernel_cache_key(1, "gcc 13.1.0", FlagRung::kNative,
                                    "x86:Intel:a"));
  EXPECT_NE(k, ct::kernel_cache_key(1, "gcc 12.2.0", FlagRung::kNative,
                                    "x86:AMD:a"));
  const std::string generic =
      ct::kernel_cache_key(1, "gcc 12.2.0", FlagRung::kGeneric, "x86:Intel:a");
  EXPECT_NE(k, generic);
  for (char c : k)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || c == '-')
        << k;

  // The source is one entry point, so its hash covers the width.
  const std::uint64_t narrow = ct::KernelSource(*small_synth(), 64).hash();
  const std::uint64_t wide = ct::KernelSource(*small_synth(), 256).hash();
  const std::uint64_t widest = ct::KernelSource(*small_synth(), 512).hash();
  EXPECT_EQ(narrow, ct::KernelSource(*small_synth(), 64).hash());
  EXPECT_NE(narrow, wide);
  EXPECT_NE(narrow, widest);
  EXPECT_NE(wide, widest);
}

TEST(KernelCache, MemoIsKeyedByNetlistStructureAndWidth) {
  if (!ct::CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  SamplerRegistry reg({.cache_dir = fresh_dir("kernel-memo"),
                       .use_disk = false});
  const auto kernel = reg.kernel(*small_synth(), 64);
  EXPECT_EQ(kernel->lanes(), 64);
  // An equal netlist held in a different object is a memo hit.
  const ct::SynthesizedSampler copy = *small_synth();
  EXPECT_EQ(reg.kernel(copy, 64).get(), kernel.get());
  EXPECT_EQ(reg.kernel_cache_stats().hits, 1u);
  EXPECT_EQ(reg.kernel_cache_stats().misses, 1u);
  // Another width is another entry point, so another kernel.
  const auto wide = reg.kernel(copy, 256);
  EXPECT_EQ(wide->lanes(), 256);
  EXPECT_NE(wide.get(), kernel.get());
  EXPECT_EQ(reg.kernel_cache_stats().misses, 2u);
}

TEST(KernelCache, WithoutDiskNothingIsWrittenUnderCacheDir) {
  if (!ct::CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  const std::string dir = fresh_dir("kernel-nodisk");
  obs::CacheStats st;
  registry_streams(dir, st, /*use_disk=*/false);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(KernelCache, CacheDirWithSpaceAndQuoteCompilesPersistsAndReloads) {
  if (!ct::CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  const std::string dir = fresh_dir("a b'c");
  obs::CacheStats st;
  const KernelStreams cold = registry_streams(dir, st);
  EXPECT_EQ(st.warm_starts, 0u);
  EXPECT_EQ(kernel_objects(dir).size(), 1u);
  EXPECT_TRUE(registry_streams(dir, st) == cold);
  EXPECT_EQ(st.warm_starts, 1u);
  std::filesystem::remove_all(dir);
}

TEST(KernelCache, EnginesShareTheRegistryKernel) {
  if (!ct::CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  SamplerRegistry reg({.cache_dir = fresh_dir("kernel-share"),
                       .use_disk = false});
  SamplerEngine a(small_synth(),
                  {.num_threads = 1, .root_seed = 5, .registry = &reg});
  SamplerEngine b(small_synth(),
                  {.num_threads = 1, .root_seed = 5, .registry = &reg});
  EXPECT_EQ(a.backend(), Backend::kCompiled);
  EXPECT_EQ(reg.kernel_cache_stats().misses, 1u);
  EXPECT_EQ(reg.kernel_cache_stats().hits, 1u);
  // Same stream as a standalone engine, which compiles privately.
  SamplerEngine standalone(small_synth(), {.num_threads = 1, .root_seed = 5});
  const auto first = a.sample(3000);
  EXPECT_EQ(standalone.sample(3000), first);
  EXPECT_EQ(b.sample(3000), first);
}

TEST_P(EngineBackends, StatisticalSanityAndDeterminism) {
  const Backend backend = GetParam();
  if (backend == Backend::kCompiled && !ct::CompiledKernel::is_available())
    GTEST_SKIP() << "no host compiler";

  SamplerRegistry reg({.cache_dir = fresh_dir("eng"), .use_disk = false});
  auto synth = reg.get(test_params());

  SamplerEngine engine(synth,
                       {.backend = backend, .num_threads = 3, .root_seed = 5});
  EXPECT_EQ(engine.backend(), backend);
  EXPECT_EQ(engine.num_threads(), 3);

  const auto v = engine.sample(120000);
  ASSERT_EQ(v.size(), 120000u);
  double sum = 0, sum_sq = 0;
  for (std::int32_t x : v) {
    sum += x;
    sum_sq += static_cast<double>(x) * x;
  }
  const double mean = sum / static_cast<double>(v.size());
  const double sigma =
      std::sqrt(sum_sq / static_cast<double>(v.size()) - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(sigma, 2.0, 0.05);

  // Same options -> bit-identical output, worker streams included.
  SamplerEngine replay(synth,
                       {.backend = backend, .num_threads = 3, .root_seed = 5});
  EXPECT_EQ(replay.sample(120000), v);

  // Different root seed -> different stream.
  SamplerEngine other(synth,
                      {.backend = backend, .num_threads = 3, .root_seed = 6});
  EXPECT_NE(other.sample(120000), v);

  EXPECT_EQ(engine.total_samples(), 120000u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EngineBackends,
                         ::testing::Values(Backend::kCompiled, Backend::kWide));

// FNV-1a over the samples' little-endian bytes.
std::uint64_t stream_digest(const std::vector<std::int32_t>& samples) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::int32_t v : samples)
    for (int i = 0; i < 4; ++i) {
      h ^= (static_cast<std::uint32_t>(v) >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  return h;
}

TEST(Engine, StreamsMatchGoldenDigests) {
  // Pins the first 100,000 samples of a two-worker engine for a fixed seed
  // on both evaluators: the word order, unpack, sign fold and compaction
  // may not change a sample.
  SamplerRegistry reg({.cache_dir = fresh_dir("golden"), .use_disk = false});
  auto synth = reg.get(test_params());
  for (const Backend backend : {Backend::kWide, Backend::kCompiled}) {
    if (backend == Backend::kCompiled && !ct::CompiledKernel::is_available())
      continue;
    SamplerEngine engine(
        synth, {.backend = backend, .num_threads = 2, .root_seed = 20260});
    EXPECT_EQ(stream_digest(engine.sample(100000)), 0xacd48e2909d29eebull)
        << backend_name(backend);
  }
}

TEST(Engine, StreamsIdenticalAcrossLaneWidthsAndRequestSizes) {
  // Random words are drawn in 256-lane units, so the compiled engine at the
  // host's width (512 lanes on AVX-512 hosts) and the interpreted 256-lane
  // engine give one stream per seed over requests straddling both batch
  // sizes, inline (one slot) and split (two). At precision 8 the valid bit
  // drops ~1% of lanes, so compaction runs across paired passes. The
  // digests pin the 256-lane engine's streams. The engine compiles only
  // the host's width, so the one-slot stream is also drawn through the
  // compiled 256- and 512-lane runners directly: every host checks the
  // kernel an AVX2 host serves and the one an AVX-512 host serves.
  SamplerRegistry reg({.cache_dir = fresh_dir("widths"), .use_disk = false});
  const std::size_t sizes[] = {1,   255, 256,  257,   511,
                               512, 513, 1000, 16384, 32771};
  const struct {
    int precision;
    int slots;
    std::uint64_t digest;
  } pins[] = {{64, 1, 0x0665423c45c0f063ull},
              {64, 2, 0x201304d69efe18deull},
              {8, 1, 0x8d2d331051685121ull},
              {8, 2, 0x0b9039eed1fbfdc4ull}};
  for (const auto& pin : pins) {
    const auto synth = reg.get(gauss::GaussianParams::sigma_2(pin.precision));
    ASSERT_TRUE(synth->has_valid_bit);
    for (const Backend backend : {Backend::kWide, Backend::kCompiled}) {
      if (backend == Backend::kCompiled && !ct::CompiledKernel::is_available())
        continue;
      SamplerEngine engine(synth, {.backend = backend,
                                   .num_threads = pin.slots,
                                   .root_seed = 20262,
                                   .registry = &reg});
      EXPECT_EQ(engine.lanes(), backend == Backend::kWide
                                    ? 256
                                    : ct::host_kernel_lanes());
      std::vector<std::int32_t> stream;
      for (const std::size_t n : sizes) {
        const auto v = engine.sample(n);
        stream.insert(stream.end(), v.begin(), v.end());
      }
      const std::uint64_t got = stream_digest(stream);
      EXPECT_EQ(got, pin.digest)
          << backend_name(backend) << " p=" << pin.precision
          << " slots=" << pin.slots << std::hex << " got 0x" << got;
    }
    if (pin.slots != 1 || !ct::CompiledKernel::is_available()) continue;
    // A one-slot engine's stream is its runner's fill() over the first
    // seed SplitMix64 derives from the root seed.
    const auto runner_digest = [&]<typename Word>(ct::BatchSampler<Word>
                                                      runner) {
      prng::ChaCha20Source rng(prng::SplitMix64Source(20262).next_word());
      std::vector<std::int32_t> stream;
      for (const std::size_t n : sizes) {
        std::vector<std::int32_t> v(n);
        runner.fill(rng, v);
        stream.insert(stream.end(), v.begin(), v.end());
      }
      return stream_digest(stream);
    };
    EXPECT_EQ(runner_digest(ct::BatchSampler<ct::Word256>(
                  *synth, reg.kernel(*synth, 256))),
              pin.digest)
        << "compiled 256-lane runner p=" << pin.precision;
    EXPECT_EQ(runner_digest(ct::BatchSampler<ct::Word512>(
                  *synth, reg.kernel(*synth, 512))),
              pin.digest)
        << "compiled 512-lane runner p=" << pin.precision;
  }
}

TEST(Engine, MultiSlotStreamPinned) {
  // A three-slot engine over successive requests of several sizes: slice i
  // of every request is drawn from slot i's stream, whichever thread runs
  // it, and each slot's stream continues across requests. Comparing two
  // engines built from the same code cannot catch a changed slot-to-slice
  // mapping; these digests can.
  SamplerRegistry reg({.cache_dir = fresh_dir("slots"), .use_disk = false});
  SamplerEngine engine(reg.get(test_params()), {.backend = Backend::kWide,
                                                .num_threads = 3,
                                                .root_seed = 20261});
  const struct {
    std::size_t n;
    std::uint64_t digest;
  } pins[] = {{1000, 0x12ed911e7eb062c8ull},
               {4096, 0x8f9ad78e4d31392dull},
               {100000, 0x4f7a9fb3393899e5ull}};
  for (const auto& pin : pins) {
    const std::uint64_t got = stream_digest(engine.sample(pin.n));
    EXPECT_EQ(got, pin.digest) << "n=" << pin.n << std::hex << " got 0x" << got;
  }
}

TEST(Engine, AutoSelectsSomeRealBackend) {
  SamplerRegistry reg({.cache_dir = fresh_dir("auto"), .use_disk = false});
  SamplerEngine engine(reg.get(test_params()), {.num_threads = 1});
  EXPECT_NE(engine.backend(), Backend::kAuto);
  if (ct::CompiledKernel::is_available())
    EXPECT_EQ(engine.backend(), Backend::kCompiled);
  const auto v = engine.sample(1000);
  EXPECT_EQ(v.size(), 1000u);
}

TEST(Engine, SmallAndUnevenRequests) {
  SamplerRegistry reg({.cache_dir = fresh_dir("small"), .use_disk = false});
  auto synth = reg.get(test_params());
  SamplerEngine engine(synth, {.backend = Backend::kWide,
                               .num_threads = 4, .root_seed = 11});
  EXPECT_TRUE(engine.sample(0).empty());
  EXPECT_EQ(engine.sample(1).size(), 1u);   // below one batch: inline path
  EXPECT_EQ(engine.sample(63).size(), 63u);
  EXPECT_EQ(engine.sample(1001).size(), 1001u);  // uneven split across 4
}

TEST(Engine, ConcurrentBulkCallsAreSerializedSafely) {
  SamplerRegistry reg({.cache_dir = fresh_dir("conc"), .use_disk = false});
  auto synth = reg.get(test_params());
  SamplerEngine engine(synth, {.backend = Backend::kWide,
                               .num_threads = 2, .root_seed = 3});
  std::vector<std::thread> callers;
  std::vector<std::vector<std::int32_t>> results(4);
  for (int i = 0; i < 4; ++i)
    callers.emplace_back([&, i] {
      results[static_cast<std::size_t>(i)] = engine.sample(5000);
    });
  for (auto& t : callers) t.join();
  for (const auto& r : results) EXPECT_EQ(r.size(), 5000u);
  EXPECT_EQ(engine.total_samples(), 20000u);
}

}  // namespace
}  // namespace cgs::engine
