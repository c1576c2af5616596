// §7 reproduction: how much of total sampling time goes to pseudorandom
// generation. The paper reports 80-85% with Keccak and ~60% with ChaCha.
// Measured by sampling with a real PRNG vs a pre-filled pool (zero-cost
// randomness): overhead = 1 - t_pool / t_prng.
//
// Two runners: the interpreted 64-lane netlist (the original row) and the
// runner the engine serves, on the registry's compiled kernel at the
// engine's lane width (512 on AVX-512 hosts, else 256): the form the paper
// measures. The interpreted row reports ns/sample only: its own run-to-run
// spread exceeds the PRNG's cost, so a PRNG share read off it shows
// nothing. The compiled row is the one to read against §7.
//
// The compiled row also times its two stages alone at that width: the
// kernel eval (the netlist pass without randomness, unpack or sign fold)
// and the unpack with sign fold. The JSON records both, the engine's lane
// width, a warm registry kernel() call (a memo hit) in µs, and the cold
// compile of the σ=2 kernel, built in a private directory so no cache
// answers it.
//
// Usage: bench_prng_overhead [batches] [--json FILE]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "ct/batch_sampler.h"
#include "ct/kernel_cache.h"
#include "engine/registry.h"
#include "prng/chacha20.h"
#include "prng/keccak.h"
#include "prng/splitmix.h"

namespace {

using namespace cgs;

class PoolSource final : public RandomBitSource {
 public:
  PoolSource() : words_(1 << 16) {
    prng::SplitMix64Source seed(3);
    for (auto& w : words_) w = seed.next_word();
  }
  std::uint64_t next_word() override {
    const std::uint64_t w = words_[pos_];
    pos_ = (pos_ + 1) & (words_.size() - 1);
    return w;
  }
  // Bulk copies, so the core-only time carries no per-word call either.
  void fill_words(std::span<std::uint64_t> out) override {
    for (std::size_t i = 0; i < out.size();) {
      const std::size_t n = std::min(out.size() - i, words_.size() - pos_);
      std::memcpy(&out[i], &words_[pos_], n * sizeof(std::uint64_t));
      i += n;
      pos_ = (pos_ + n) & (words_.size() - 1);
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t pos_ = 0;
};

double ns_per_sample(double seconds, int batches, int lanes) {
  return 1e9 * seconds / (static_cast<double>(batches) * lanes);
}

template <typename Sampler>
double seconds_for_batches(Sampler& s, RandomBitSource& rng, int batches) {
  std::int32_t out[Sampler::kBatch];
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < batches; ++i) (void)s.sample_batch(rng, out);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct PrngRow {
  const char* name;
  double total_s;
  double ns_per_sample;
  double share;  // compiled row only
};

struct RunnerResult {
  std::string name;
  int lanes;
  int words_per_batch;
  bool with_share;
  double core_only_s;
  std::vector<PrngRow> prngs;
};

/// Seconds for `reps` calls of `f`, after a short warmup.
template <typename F>
double seconds_for(F&& f, int reps) {
  for (int i = 0; i < reps / 20 + 1; ++i) f();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename Sampler>
RunnerResult run(const char* name, Sampler& sampler, int batches,
                 bool with_share) {
  constexpr int kLanes = Sampler::kBatch;
  PoolSource pool;
  (void)seconds_for_batches(sampler, pool, batches / 20 + 1);  // warmup
  RunnerResult r{name, kLanes, sampler.words_per_batch(), with_share,
                 seconds_for_batches(sampler, pool, batches), {}};
  std::printf("\n%s: core-only time (pre-filled pool) %.3fs for %d batches"
              " of %d\n", name, r.core_only_s, batches, kLanes);
  std::printf("%-26s %10s %12s %14s\n", "PRNG", "total(s)", "ns/sample",
              with_share ? "PRNG share" : "");
  struct Entry {
    const char* name;
    std::unique_ptr<RandomBitSource> src;
  } entries[3] = {
      {"SHAKE-128 (Keccak)", std::make_unique<prng::ShakeSource>(1)},
      {"ChaCha20", std::make_unique<prng::ChaCha20Source>(1)},
      {"SplitMix64 (non-crypto)", std::make_unique<prng::SplitMix64Source>(1)},
  };
  for (auto& e : entries) {
    const double t = seconds_for_batches(sampler, *e.src, batches);
    const PrngRow row{e.name, t, ns_per_sample(t, batches, kLanes),
                      with_share ? 1.0 - r.core_only_s / t : 0.0};
    r.prngs.push_back(row);
    std::printf("%-26s %10.3f %12.2f", e.name, t, row.ns_per_sample);
    if (with_share) std::printf(" %13.1f%%", 100.0 * row.share);
    std::printf("\n");
  }
  std::printf("(each batch consumes %d words = %d random bits)\n",
              r.words_per_batch, r.words_per_batch * 64);
  return r;
}

/// The engine's compiled path at its width, stage by stage.
struct CompiledStages {
  double eval_ns_per_sample = 0;
  double unpack_ns_per_sample = 0;
};

template <typename Word>
CompiledStages compiled_row(const ct::SynthesizedSampler& synth,
                            std::shared_ptr<const ct::CompiledKernel> kernel,
                            int batches, std::vector<RunnerResult>& results) {
  using Runner = ct::BatchSampler<Word>;
  constexpr int kGroups = Runner::kBatch / 64;
  Runner runner(synth, kernel);
  const std::string name =
      "compiled, " + std::to_string(Runner::kBatch) + " lanes";
  results.push_back(run(name.c_str(), runner, batches, true));

  // Each stage alone, on fixed random inputs.
  std::vector<std::uint64_t> in(kGroups * kernel->num_inputs()),
      out(kGroups * kernel->num_outputs());
  prng::SplitMix64Source seed(11);
  for (auto& w : in) w = seed.next_word();
  const ct::CompiledKernel::Fn fn = kernel->fn();
  CompiledStages st;
  st.eval_ns_per_sample = ns_per_sample(
      seconds_for([&] { fn(in.data(), out.data()); }, batches), batches,
      Runner::kBatch);
  const typename Runner::Unpack unpack = Runner::select_unpack();
  std::uint64_t signs[kGroups];
  for (auto& w : signs) w = seed.next_word();
  std::int32_t samples[Runner::kBatch];
  st.unpack_ns_per_sample = ns_per_sample(
      seconds_for(
          [&] { unpack(out.data(), synth.num_output_bits, signs, samples); },
          batches),
      batches, Runner::kBatch);
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  const int batches = args.n ? static_cast<int>(args.n) : 20000;

  std::printf("§7 reproduction: PRNG share of total sampling time\n");
  std::printf("(paper: Keccak 80-85%%, ChaCha ~60%%)\n");

  auto& registry = engine::SamplerRegistry::global();
  const auto synth = registry.get(gauss::GaussianParams::sigma_2(128));
  std::vector<RunnerResult> results;
  ct::BitslicedSampler interpreted(*synth);
  results.push_back(run("interpreted, 64 lanes", interpreted, batches, false));

  const int lanes = ct::host_kernel_lanes();
  CompiledStages stages;
  double cold_compile_s = 0, warm_kernel_us = 0;
  if (ct::CompiledKernel::is_available()) {
    // A compiler without GCC vector extensions fails every vector form.
    try {
      const auto kernel = registry.kernel(*synth, lanes);
      stages =
          lanes == 512
              ? compiled_row<ct::Word512>(*synth, kernel, batches, results)
              : compiled_row<ct::Word256>(*synth, kernel, batches, results);
      // A memo hit: the best of 20 calls, so a stray preemption is not read
      // as the cost.
      warm_kernel_us = 1e300;
      for (int i = 0; i < 20; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        (void)registry.kernel(*synth, lanes);
        warm_kernel_us = std::min(
            warm_kernel_us, 1e6 * std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count());
      }
      // An empty directory compiles privately and persists nothing.
      const auto t0 = std::chrono::steady_clock::now();
      (void)ct::load_or_compile_kernel(ct::KernelSource(*synth, lanes));
      cold_compile_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      std::printf("at %d lanes: kernel eval %.2f ns/sample, unpack %.2f "
                  "ns/sample; warm kernel() %.1f us; cold σ=2 compile %.2fs\n",
                  lanes, stages.eval_ns_per_sample,
                  stages.unpack_ns_per_sample, warm_kernel_us, cold_compile_s);
    } catch (const Error& e) {
      std::printf("\n(%s: compiled row skipped)\n", e.what());
    }
  } else {
    std::printf("\n(no host compiler: compiled row skipped)\n");
  }

  if (!args.json_path.empty()) {
    JsonWriter json;
    json.begin_object()
        .field("bench", "prng_overhead")
        .field("paper_chacha_share", 0.60)
        .field("engine_lanes", lanes)
        .field("eval_ns_per_sample", stages.eval_ns_per_sample)
        .field("unpack_ns_per_sample", stages.unpack_ns_per_sample)
        .field("kernel_warm_us", warm_kernel_us)
        .field("kernel_cold_compile_s", cold_compile_s)
        .begin_array("runners");
    for (const RunnerResult& r : results) {
      json.begin_object()
          .field("runner", r.name)
          .field("lanes", r.lanes)
          .field("words_per_batch", r.words_per_batch)
          .field("core_only_s", r.core_only_s)
          .begin_array("prngs");
      for (const PrngRow& p : r.prngs) {
        json.begin_object()
            .field("prng", p.name)
            .field("total_s", p.total_s)
            .field("ns_per_sample", p.ns_per_sample);
        if (r.with_share) json.field("share", p.share);
        json.end_object();
      }
      json.end_array().end_object();
    }
    json.end_array().end_object();
    json.write_file(args.json_path);
  }
  return 0;
}
