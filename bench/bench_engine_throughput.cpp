// Sampler-engine throughput: the cost of the offline/online split in
// numbers. Measures, for the Falcon base distribution sigma_2(64):
//
//   1. cold start  — full synthesis (probability matrix -> QM exact
//      minimization -> netlist), i.e. what every process start paid before
//      the registry existed;
//   2. warm start  — deserializing the cached netlist frame from disk
//      (reported as a speedup over cold; the warm reps must come from
//      disk);
//   3. round-trip fidelity — the deserialized sampler's stream is
//      bit-identical to the fresh one under the same ChaCha20 seed;
//   4. online throughput — samples/sec per backend, single- vs
//      multi-threaded, through SamplerEngine.
//
// Usage: bench_engine_throughput [samples_per_run] [--json FILE]
// (default 2^21 samples; --json writes the measurements as one JSON object
// so CI can archive a perf trajectory across PRs)

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ct/batch_sampler.h"
#include "ct/compiled_sampler.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "prng/chacha20.h"
#include "serial/formats.h"

namespace {

using namespace cgs;
using benchutil::Clock;
using benchutil::ms_since;

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  const std::string& json_path = args.json_path;
  std::size_t n_samples = args.n;
  if (n_samples == 0) n_samples = 1u << 21;  // default; also unparseable argv
  const auto params = gauss::GaussianParams::sigma_2(64);
  // Per-process dir: a concurrent bench run must not remove_all() the cache
  // this run is warm-loading from (that would fake a cold start).
  const std::string dir = std::filesystem::temp_directory_path() /
                          ("cgs-bench-engine-cache-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  std::printf("== offline: cold synthesis vs warm cache load, %s ==\n",
              params.describe().c_str());

  // Cold: synthesize + persist (averaged over a few runs, fresh dir each).
  constexpr int kReps = 5;
  double cold_ms = 0;
  for (int i = 0; i < kReps; ++i) {
    std::filesystem::remove_all(dir);
    engine::SamplerRegistry reg({.cache_dir = dir});
    const auto t0 = Clock::now();
    (void)reg.get(params);
    cold_ms += ms_since(t0);
  }
  cold_ms /= kReps;

  // Warm: a fresh registry (a "new process") against the populated dir.
  double warm_ms = 0;
  engine::SamplerRegistry::Source source{};
  for (int i = 0; i < kReps; ++i) {
    engine::SamplerRegistry reg({.cache_dir = dir});
    const auto t0 = Clock::now();
    (void)reg.get(params, {}, &source);
    warm_ms += ms_since(t0);
  }
  warm_ms /= kReps;
  const double speedup = cold_ms / warm_ms;
  std::printf("  cold synthesis: %8.3f ms\n", cold_ms);
  std::printf("  warm load:      %8.3f ms (%s)\n", warm_ms,
              source == engine::SamplerRegistry::Source::kDisk
                  ? "from disk cache"
                  : "UNEXPECTED SOURCE");
  std::printf("  speedup:        %8.1fx\n\n", speedup);

  // Round-trip fidelity: fresh vs serialize->deserialize, same seed.
  const gauss::ProbMatrix matrix(params);
  ct::SynthesizedSampler fresh = ct::synthesize(matrix, {});
  ct::SynthesizedSampler loaded =
      serial::deserialize_sampler(serial::serialize(params, {}, fresh)).sampler;
  bool identical = true;
  {
    ct::BitslicedSampler a(fresh), b(loaded);
    prng::ChaCha20Source rng_a(2019), rng_b(2019);
    std::int32_t batch_a[64], batch_b[64];
    for (int it = 0; it < 1000 && identical; ++it) {
      identical &= a.sample_batch(rng_a, batch_a) ==
                   b.sample_batch(rng_b, batch_b);
      for (int lane = 0; lane < 64; ++lane)
        identical &= batch_a[lane] == batch_b[lane];
    }
  }
  std::printf("== round trip: 64000 samples fresh vs deserialized: %s ==\n\n",
              identical ? "bit-identical" : "MISMATCH");

  // Online throughput per backend and thread count.
  engine::SamplerRegistry reg({.cache_dir = dir});
  const auto synth = reg.get(params);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("== online: samples/sec, %zu samples per run, hw threads=%u ==\n",
              n_samples, hw);
  std::printf("%-14s %10s %14s %10s\n", "backend", "threads", "samples/s",
              "scaling");
  struct ThroughputRow {
    const char* backend;
    unsigned threads;
    double rate;
  };
  std::vector<ThroughputRow> rows;
  for (engine::Backend backend :
       {engine::Backend::kCompiled, engine::Backend::kWide}) {
    if (backend == engine::Backend::kCompiled &&
        !ct::CompiledKernel::is_available()) {
      std::printf("%-14s %21s\n", engine::backend_name(backend),
                  "(no host compiler)");
      continue;
    }
    double single = 0;
    for (unsigned threads = 1; threads <= hw; threads *= 2) {
      engine::SamplerEngine engine(
          synth, {.backend = backend,
                  .num_threads = static_cast<int>(threads),
                  .root_seed = 42});
      (void)engine.sample(n_samples / 4);  // warmup
      const auto t0 = Clock::now();
      (void)engine.sample(n_samples);
      const double secs = ms_since(t0) / 1e3;
      const double rate = static_cast<double>(n_samples) / secs;
      if (threads == 1) single = rate;
      std::printf("%-14s %10u %14.3e %9.2fx\n", engine::backend_name(backend),
                  threads, rate, rate / single);
      rows.push_back({engine::backend_name(backend), threads, rate});
    }
  }

  if (!json_path.empty()) {
    JsonWriter json;
    json.begin_object()
        .field("bench", "engine_throughput")
        .field("n", n_samples)
        .field("cold_synthesis_ms", cold_ms)
        .field("warm_load_ms", warm_ms)
        .field("warm_speedup", speedup)
        .field("round_trip_identical", identical)
        .begin_array("throughput");
    for (const ThroughputRow& row : rows)
      json.begin_object()
          .field("backend", row.backend)
          .field("threads", row.threads)
          .field("samples_per_sec", row.rate)
          .end_object();
    json.end_array().end_object();
    json.write_file(json_path);
  }

  std::filesystem::remove_all(dir);
  // Only the jitter-free facts gate; the speedup is reported. A dead
  // persist path fails here rather than as a slow warm start.
  const bool from_disk = source == engine::SamplerRegistry::Source::kDisk;
  if (!identical || !from_disk) {
    std::printf("\nFAIL: %s\n",
                !identical ? "round trip not bit-identical"
                           : "warm reps did not load from the disk cache");
    return 1;
  }
  std::printf("\nOK: warm start %.1fx faster than cold synthesis, "
              "round trip bit-identical\n", speedup);
  return 0;
}
