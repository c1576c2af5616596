// Ablation of the paper's design choices:
//  - minimization mode (exact QM / heuristic / merge-only / raw cubes)
//  - sublist split vs flat two-level SOP
//  - structural hashing (CSE) on/off
//  - batch width: 64 lanes (uint64) vs 256 lanes (vector extension / AVX2)
// for sigma in {1, 2, 6.15543} at n = 128, plus the one-off synthesis time.
// Every sampling row reports ns/sample (median of 9 reps) next to the
// netlist op count and Delta, so speed can be correlated with circuit size.
//
// Usage: bench_ablation_split [batches_per_rep] [--json FILE]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ct/batch_sampler.h"
#include "ct/flat_baseline.h"
#include "prng/splitmix.h"

namespace {

using namespace cgs;
using benchutil::Clock;
using benchutil::ms_since;

constexpr const char* kSigmaNames[] = {"sigma_1", "sigma_2", "sigma_6.15543"};

gauss::GaussianParams params_for(int idx) {
  switch (idx) {
    case 0: return gauss::GaussianParams::sigma_1(128);
    case 1: return gauss::GaussianParams::sigma_2(128);
    default: return gauss::GaussianParams::sigma_6_15543(128);
  }
}

struct Row {
  std::string key;
  double ns_per_sample;
  std::size_t netlist_ops;
  int delta;
};

// Median-of-9 milliseconds for `reps_n` calls of `batch`, after a warmup
// of a quarter of that. `batch` returns a value folded into a sink so the
// work cannot be eliminated.
template <typename Batch>
double median_ms(Batch&& batch, std::size_t reps_n) {
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < reps_n / 4; ++i) sink += batch();
  std::vector<double> reps;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps_n; ++i) sink += batch();
    reps.push_back(ms_since(t0));
  }
  std::nth_element(reps.begin(), reps.begin() + reps.size() / 2, reps.end());
  asm volatile("" : : "r"(sink));
  return reps[reps.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  const std::size_t batches = args.n ? args.n : 2000;
  std::printf("ablation at precision 128, %zu batches/rep, median of 9\n\n",
              batches);
  std::printf("%-36s %10s %12s %6s\n", "config", "ns/sample", "netlist_ops",
              "Delta");

  std::vector<Row> rows;
  const auto record = [&rows](std::string key, double ms, std::size_t samples,
                              const ct::SynthesizedSampler& synth) {
    rows.push_back({std::move(key), ms * 1e6 / static_cast<double>(samples),
                    synth.stats.netlist_ops, synth.stats.delta});
    const Row& r = rows.back();
    std::printf("%-36s %10.2f %12zu %6d\n", r.key.c_str(), r.ns_per_sample,
                r.netlist_ops, r.delta);
  };
  const auto run64 = [&](std::string key, ct::SynthesizedSampler synth) {
    ct::BitslicedSampler s(std::move(synth));
    prng::SplitMix64Source rng(9);
    std::uint32_t out[ct::BitslicedSampler::kBatch];
    const double ms =
        median_ms([&] { return s.sample_magnitudes(rng, out)[0]; }, batches);
    record(std::move(key), ms, batches * ct::BitslicedSampler::kBatch,
           s.synth());
  };

  for (int sigma = 0; sigma < 3; ++sigma) {
    const gauss::ProbMatrix m(params_for(sigma));
    const std::string name = kSigmaNames[sigma];
    for (int mode = 0; mode < 4; ++mode) {
      ct::SynthesisConfig cfg;
      cfg.mode = static_cast<ct::MinimizeMode>(mode);
      run64("split/" + name + "/mode" + std::to_string(mode),
            ct::synthesize(m, cfg));
    }
    for (int merge = 0; merge < 2; ++merge) {
      ct::FlatConfig cfg;
      cfg.merge = merge != 0;
      run64("flat/" + name + "/merge" + std::to_string(merge),
            ct::synthesize_flat(m, cfg));
    }
  }

  for (int sigma = 1; sigma < 3; ++sigma) {
    const gauss::ProbMatrix m(params_for(sigma));
    const std::string name = kSigmaNames[sigma];
    ct::SynthesisConfig no_cse;
    no_cse.cse = false;
    run64("cse_off/" + name, ct::synthesize(m, no_cse));
    run64("width64/" + name, ct::synthesize(m, {}));

    // 256-lane batches are 4x the work: a quarter as many per rep.
    ct::WideBitslicedSampler s(ct::synthesize(m, {}));
    prng::SplitMix64Source rng(11);
    std::uint32_t out[ct::WideBitslicedSampler::kBatch];
    const double ms = median_ms(
        [&] { return out[0] + s.sample_magnitudes(rng, out)[0]; },
        batches / 4);
    record("width256/" + name, ms,
           batches / 4 * ct::WideBitslicedSampler::kBatch, s.synth());
  }

  // Synthesis time of the default pipeline itself (one-off, but worth
  // tracking).
  std::vector<double> synth_ms;
  for (int sigma = 0; sigma < 3; ++sigma) {
    const gauss::ProbMatrix m(params_for(sigma));
    const double ms = median_ms(
        [&] { return ct::synthesize(m, {}).stats.netlist_ops; }, 1);
    synth_ms.push_back(ms);
    std::printf("%-36s %10.2f ms\n",
                ("synthesis/" + std::string(kSigmaNames[sigma])).c_str(), ms);
  }

  if (!args.json_path.empty()) {
    JsonWriter json;
    json.begin_object()
        .field("bench", "ablation_split")
        .field("batches_per_rep", batches)
        .begin_object("ns_per_sample");
    for (const Row& row : rows) json.field(row.key.c_str(), row.ns_per_sample);
    json.end_object().begin_object("netlist_ops");
    for (const Row& row : rows) json.field(row.key.c_str(), row.netlist_ops);
    json.end_object().begin_object("synthesis_ms");
    for (int sigma = 0; sigma < 3; ++sigma)
      json.field(kSigmaNames[sigma], synth_ms[static_cast<std::size_t>(sigma)]);
    json.end_object().end_object();
    json.write_file(args.json_path);
  }
  return 0;
}
