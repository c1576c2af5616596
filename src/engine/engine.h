#pragma once
// SamplerEngine: the online half of the offline/online split — a batch
// sampling service over one synthesized netlist. Every worker runs the one
// 256-lane runner (ct::BatchSampler<Word256>) with the fastest evaluator
// available on this machine: compiled ▸ interpreted. Compiled is the
// CompiledKernel's 256-lane entry point (the netlist emitted as C and
// host-compiled, with -march=native when the flag exists); a host without
// a compiler, or whose compiler rejects GCC vector extensions, gets the
// interpreted netlist on the same 256-lane word. Bulk requests are served
// from N worker threads. Each worker owns an independent ChaCha20 stream
// whose key is derived from the engine's root seed and the worker index
// (SplitMix64 mixing), so output is fully deterministic for a fixed
// (root_seed, num_threads, request size), no two workers ever share PRNG
// state, and both evaluators emit the same stream. The compiled kernel is
// loaded once and shared by all workers (its eval is stateless) — from the
// registry's per-machine kernel cache when EngineOptions::registry is set.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ct/synthesis.h"

namespace cgs::ct {
class CompiledKernel;
}

namespace cgs::engine {

class SamplerRegistry;

enum class Backend {
  kAuto,      // pick the fastest available at construction
  kCompiled,  // host-compiled 256-lane kernel (throws if unavailable)
  kWide,      // 256-lane interpreted netlist
};

const char* backend_name(Backend b);

struct EngineOptions {
  Backend backend = Backend::kAuto;
  int num_threads = 0;          // 0 -> hardware concurrency (min 1)
  std::uint64_t root_seed = 0;  // per-worker streams derived from this
  /// Where the compiled backend gets its kernel: the registry's memoized,
  /// disk-cached kernel() when set (compiling the netlist C takes seconds
  /// for large supports, so services share one per netlist and machine);
  /// else a private compile with no persistent directory. Not owned; only
  /// used during construction.
  SamplerRegistry* registry = nullptr;
};

class SamplerEngine {
 public:
  explicit SamplerEngine(std::shared_ptr<const ct::SynthesizedSampler> synth,
                         EngineOptions options = {});
  ~SamplerEngine();

  SamplerEngine(const SamplerEngine&) = delete;
  SamplerEngine& operator=(const SamplerEngine&) = delete;

  /// The backend actually selected (never kAuto).
  Backend backend() const { return backend_; }
  int num_threads() const { return static_cast<int>(workers_.size()); }
  const ct::SynthesizedSampler& synth() const { return *synth_; }

  /// Fill `out` with signed base-Gaussian samples, the request split evenly
  /// across the persistent worker pool (requests smaller than one batch per
  /// worker are served inline on the calling thread). Each worker continues
  /// its own PRNG stream across calls. Concurrent calls are serialized
  /// internally.
  void sample(std::span<std::int32_t> out);
  std::vector<std::int32_t> sample(std::size_t n);

  /// Lifetime sample count (across all calls). Safe to poll from a
  /// monitoring thread while sample() runs.
  std::uint64_t total_samples() const {
    return total_samples_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker;
  friend struct Worker;

  std::shared_ptr<const ct::SynthesizedSampler> synth_;
  Backend backend_;
  std::shared_ptr<const ct::CompiledKernel> kernel_;  // shared by all workers
  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex mu_;  // serializes sample() calls
  std::atomic<std::uint64_t> total_samples_{0};

  // Persistent pool handshake (threads live for the engine's lifetime; a
  // spawn-per-request design would pay thread create+join on every call).
  std::mutex pool_mu_;
  std::condition_variable work_cv_, done_cv_;
  std::uint64_t generation_ = 0;  // bumped once per dispatched request
  std::size_t pending_ = 0;
  std::exception_ptr pool_error_;  // first worker failure, rethrown by sample()
  bool stopping_ = false;
};

}  // namespace cgs::engine
