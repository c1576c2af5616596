// Sampler-only microbenchmarks of the base samplers: ns/sample at
// sigma = 2, n = 128 — the raw ranking underlying Table 1 — plus the
// amortized 64-lane batch view of the bit-sliced core. A standalone main
// (not google-benchmark) so it shares the common "[n] [--json FILE]"
// convention and lands in the unified per-PR bench artifact.
//
// Usage: bench_cdt_variants [samples_per_rep] [--json FILE]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "cdt/cdt_samplers.h"
#include "ct/batch_sampler.h"
#include "ct/buffered.h"
#include "ct/compiled_sampler.h"
#include "ct/kernel_cache.h"
#include "ct/synthesis.h"
#include "ddg/kysampler.h"
#include "prng/splitmix.h"

namespace {

using namespace cgs;
using benchutil::Clock;
using benchutil::ms_since;

struct Row {
  const char* key;
  double ns_per_sample;
};

// Median-of-reps ns/sample through any callable returning a sample (the
// sink defeats dead-code elimination the way DoNotOptimize used to).
template <typename Draw>
double ns_per_sample(Draw&& draw, std::size_t n_per_rep) {
  std::int64_t sink = 0;
  for (std::size_t i = 0; i < n_per_rep / 4; ++i) sink += draw();  // warmup
  std::vector<double> reps;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n_per_rep; ++i) sink += draw();
    reps.push_back(ms_since(t0));
  }
  std::nth_element(reps.begin(), reps.begin() + reps.size() / 2, reps.end());
  const double median_ms = reps[reps.size() / 2];
  asm volatile("" : : "r"(sink));
  return median_ms * 1e6 / static_cast<double>(n_per_rep);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  const std::size_t n = args.n ? args.n : 200000;
  const gauss::ProbMatrix matrix(gauss::GaussianParams::sigma_2(128));
  const cdt::CdtTable table(matrix);
  const ct::SynthesizedSampler synth = ct::synthesize(matrix, {});

  std::printf("base-sampler ns/sample, sigma = 2, precision 128, %zu "
              "samples/rep, median of 9\n\n", n);
  std::vector<Row> rows;
  const auto run = [&](const char* key, auto make_draw) {
    const double ns = ns_per_sample(make_draw(), n);
    rows.push_back({key, ns});
    std::printf("%-24s %10.1f ns/sample\n", key, ns);
  };

  run("cdt_byte_scan", [&] {
    return [s = cdt::CdtByteScanSampler(table),
            rng = prng::SplitMix64Source(1)]() mutable { return s.sample(rng); };
  });
  run("cdt_binary_search", [&] {
    return [s = cdt::CdtBinarySearchSampler(table),
            rng = prng::SplitMix64Source(2)]() mutable { return s.sample(rng); };
  });
  run("cdt_linear_ct", [&] {
    return [s = cdt::CdtLinearCtSampler(table),
            rng = prng::SplitMix64Source(3)]() mutable { return s.sample(rng); };
  });
  run("bitsliced_ct", [&] {
    return [s = ct::BufferedSampler(synth),
            rng = prng::SplitMix64Source(4)]() mutable { return s.sample(rng); };
  });
  if (ct::CompiledKernel::is_available()) {
    run("bitsliced_ct_compiled", [&] {
      return [s = ct::BufferedSampler(
                  synth, ct::load_or_compile_kernel(ct::KernelSource(synth, 64))
                             .kernel),
              rng = prng::SplitMix64Source(7)]() mutable {
        return s.sample(rng);
      };
    });
  } else {
    std::printf("%-24s %10s\n", "bitsliced_ct_compiled", "(no host compiler)");
  }
  run("knuth_yao_reference", [&] {
    return [s = ct::ReferenceKySampler(matrix),
            rng = prng::SplitMix64Source(5)]() mutable { return s.sample(rng); };
  });
  // Amortized view: one 64-lane batch per netlist pass.
  {
    ct::BitslicedSampler s(synth);
    prng::SplitMix64Source rng(6);
    std::int32_t out[64];
    std::size_t lane = 64;
    const double ns = ns_per_sample(
        [&]() mutable {
          if (lane == 64) {
            (void)s.sample_batch(rng, out);
            lane = 0;
          }
          return out[lane++];
        },
        n);
    rows.push_back({"bitsliced_batch64", ns});
    std::printf("%-24s %10.1f ns/sample (amortized over 64-lane batches)\n",
                "bitsliced_batch64", ns);
  }

  if (!args.json_path.empty()) {
    JsonWriter json;
    json.begin_object()
        .field("bench", "cdt_variants")
        .field("n_per_rep", n)
        .begin_object("ns_per_sample");
    for (const Row& row : rows) json.field(row.key, row.ns_per_sample);
    json.end_object().end_object();
    json.write_file(args.json_path);
  }
  return 0;
}
