// §7 reproduction: how much of total sampling time goes to pseudorandom
// generation. The paper reports 80-85% with Keccak and ~60% with ChaCha.
// Measured by sampling with a real PRNG vs a pre-filled pool (zero-cost
// randomness): overhead = 1 - t_pool / t_prng.
//
// Two runners: the interpreted 64-lane netlist (the original row) and the
// 256-lane runner on the registry's compiled kernel, the form the paper
// measures and the one the engine serves. The interpreter's own cost
// dilutes the PRNG share; the compiled row is the one to read against §7.
//
// The compiled row also times the kernel alone (eval ns/sample: the netlist
// pass without randomness, unpack or sign fold) and the JSON records the
// cold compile of the σ=2 kernel, built in a private directory so no cache
// answers it: the two numbers a change to the kernel's flags or emission
// moves.
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
  double share;
};

struct RunnerResult {
  std::string name;
  int lanes;
  int words_per_batch;
  double core_only_s;
  std::vector<PrngRow> prngs;
  double eval_ns_per_sample = 0;  // compiled row only
};

/// The 256-lane kernel entry alone, on fixed random inputs.
double kernel_eval_ns(const ct::CompiledKernel& kernel, int batches) {
  const ct::CompiledKernel::Fn fn = kernel.entry(256);
  std::vector<std::uint64_t> in(4 * kernel.num_inputs()),
      out(4 * kernel.num_outputs());
  prng::SplitMix64Source seed(11);
  for (auto& w : in) w = seed.next_word();
  for (int i = 0; i < batches / 20 + 1; ++i) fn(in.data(), out.data());
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < batches; ++i) fn(in.data(), out.data());
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return 1e9 * s / (static_cast<double>(batches) * 256);
}

template <typename Sampler>
RunnerResult run(const char* name, Sampler& sampler, int batches) {
  PoolSource pool;
  (void)seconds_for_batches(sampler, pool, batches / 20 + 1);  // warmup
  RunnerResult r{name, Sampler::kBatch, sampler.words_per_batch(),
                 seconds_for_batches(sampler, pool, batches), {}};
  std::printf("\n%s: core-only time (pre-filled pool) %.3fs for %d batches"
              " of %d\n", name, r.core_only_s, batches, Sampler::kBatch);
  std::printf("%-26s %10s %12s %14s\n", "PRNG", "total(s)", "ns/sample",
              "PRNG share");
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
    const double share = 1.0 - r.core_only_s / t;
    r.prngs.push_back({e.name, t, share});
    std::printf("%-26s %10.3f %12.2f %13.1f%%\n", e.name, t,
                1e9 * t / (static_cast<double>(batches) * Sampler::kBatch),
                100.0 * share);
  }
  std::printf("(each batch consumes %d words = %d random bits)\n",
              r.words_per_batch, r.words_per_batch * 64);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  const int batches = args.n ? static_cast<int>(args.n) : 20000;

  std::printf("§7 reproduction: PRNG share of total sampling time\n");
  std::printf("(paper: Keccak 80-85%%, ChaCha ~60%%)\n");

  const auto synth = engine::SamplerRegistry::global().get(
      gauss::GaussianParams::sigma_2(128));
  std::vector<RunnerResult> results;
  ct::BitslicedSampler interpreted(*synth);
  results.push_back(run("interpreted, 64 lanes", interpreted, batches));
  const auto kernel = ct::CompiledKernel::is_available()
                          ? engine::SamplerRegistry::global().kernel(*synth)
                          : nullptr;
  double cold_compile_s = 0;
  if (kernel && kernel->has_wide()) {
    ct::WideBitslicedSampler compiled(*synth, kernel);
    results.push_back(run("compiled, 256 lanes", compiled, batches));
    results.back().eval_ns_per_sample = kernel_eval_ns(*kernel, batches);
    // An empty directory compiles privately and persists nothing.
    const auto t0 = std::chrono::steady_clock::now();
    (void)ct::load_or_compile_kernel(ct::KernelSource(*synth));
    cold_compile_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    std::printf("kernel eval alone: %.2f ns/sample; cold σ=2 compile: %.2fs\n",
                results.back().eval_ns_per_sample, cold_compile_s);
  } else {
    std::printf("\n(no 256-lane compiled kernel: compiled row skipped)\n");
  }

  if (!args.json_path.empty()) {
    benchutil::JsonWriter json;
    json.begin_object()
        .field("bench", "prng_overhead")
        .field("paper_chacha_share", 0.60)
        .field("kernel_cold_compile_s", cold_compile_s)
        .begin_array("runners");
    for (const RunnerResult& r : results) {
      json.begin_object()
          .field("runner", r.name)
          .field("lanes", r.lanes)
          .field("words_per_batch", r.words_per_batch)
          .field("core_only_s", r.core_only_s)
          .field("eval_ns_per_sample", r.eval_ns_per_sample)
          .begin_array("prngs");
      for (const PrngRow& p : r.prngs)
        json.begin_object()
            .field("prng", p.name)
            .field("total_s", p.total_s)
            .field("share", p.share)
            .end_object();
      json.end_array().end_object();
    }
    json.end_array().end_object();
    json.write_file(args.json_path);
  }
  return 0;
}
