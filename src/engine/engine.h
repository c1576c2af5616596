#pragma once
// SamplerEngine: the online half of the offline/online split — a batch
// sampling service over one synthesized netlist. Every slot runs one
// bit-sliced runner (ct::BatchSampler) with the fastest evaluator available
// on this machine: compiled ▸ interpreted. Compiled is the CompiledKernel's
// entry point at the host's widest lane word, picked once at run time
// (ct::host_kernel_lanes(): 512 lanes on AVX-512 VBMI hosts, else 256), the
// netlist emitted as C and host-compiled with -march=native when the flag
// exists. A host without a compiler, or whose compiler rejects GCC vector
// extensions, gets the interpreted netlist on the 256-lane word. A bulk
// request is split into one slice per slot and the slices run as one batch
// on the process-wide executor (common/task_crew.h). Each slot owns an
// independent ChaCha20 stream whose key is derived from the engine's root
// seed and the slot index (SplitMix64 mixing), and slice i is always drawn
// from slot i's stream, whichever thread runs it. Every runner draws its
// random words in 256-lane units (ct/batch_sampler.h), and a slice needs
// only the units it keeps. Output is therefore fully deterministic for a
// fixed (root_seed, num_threads, request size), no two slots ever share
// PRNG state, and every evaluator and lane width emits the same stream.
// The compiled kernel is loaded once and shared by all slots (its eval is
// stateless) — from the registry's per-machine kernel cache when
// EngineOptions::registry is set.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ct/synthesis.h"

namespace cgs::ct {
class CompiledKernel;
}

namespace cgs::engine {

class SamplerRegistry;

enum class Backend {
  kAuto,      // pick the fastest available at construction
  kCompiled,  // host-compiled kernel, widest lanes (throws if unavailable)
  kWide,      // 256-lane interpreted netlist
};

const char* backend_name(Backend b);

struct EngineOptions {
  Backend backend = Backend::kAuto;
  /// Slots: independent streams a bulk request is split across (0 ->
  /// hardware concurrency, min 1). Threads come from the shared executor.
  int num_threads = 0;
  std::uint64_t root_seed = 0;  // per-slot streams derived from this
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
  int num_threads() const { return static_cast<int>(slots_.size()); }
  /// Lanes per netlist pass: the compiled kernel's width, or 256
  /// interpreted.
  int lanes() const;
  const ct::SynthesizedSampler& synth() const { return *synth_; }

  /// Fill `out` with signed base-Gaussian samples, the request split evenly
  /// across the slots (requests smaller than one batch per slot are served
  /// inline from slot 0). Each slot continues its own PRNG stream across
  /// calls. Concurrent calls are serialized internally.
  void sample(std::span<std::int32_t> out);
  std::vector<std::int32_t> sample(std::size_t n);

  /// Lifetime sample count (across all calls). Safe to poll from a
  /// monitoring thread while sample() runs.
  std::uint64_t total_samples() const {
    return total_samples_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot;

  std::shared_ptr<const ct::SynthesizedSampler> synth_;
  Backend backend_;
  std::shared_ptr<const ct::CompiledKernel> kernel_;  // shared by all slots
  std::vector<std::unique_ptr<Slot>> slots_;
  std::mutex mu_;  // serializes sample() calls
  std::atomic<std::uint64_t> total_samples_{0};
};

}  // namespace cgs::engine
