#pragma once
// Compiled execution of a synthesized sampler: emit the netlist as C (the
// paper's artifact was exactly such generated C), compile it with the host
// compiler into a shared object, and call it through a function pointer.
// ~10x faster than the interpreted netlist and what the Table-1/Table-2
// "this work" rows use when available. Falls back gracefully (is_available
// == false) when no host compiler can be found. Building and loading the
// object — and caching it on disk per machine — is ct/kernel_cache.h.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/sampler.h"
#include "ct/synthesis.h"

namespace cgs::ct {

class CompiledKernel {
 public:
  /// Binds the kernel symbols of a loaded object: the 64-lane form and, when
  /// the compiler took it, the 256-lane vector form. `object` is the dlopen
  /// handle, released by its deleter. load_or_compile_kernel
  /// (ct/kernel_cache.h) is the one producer.
  CompiledKernel(std::shared_ptr<void> object, std::size_t num_inputs,
                 std::size_t num_outputs);

  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  void eval(std::span<const std::uint64_t> in,
            std::span<std::uint64_t> out) const;

  /// 256-lane form: 4 words per netlist bit, group-major (word g of bit k
  /// at index 4*k + g). Spans must be 4x the scalar sizes.
  void eval_wide(std::span<const std::uint64_t> in,
                 std::span<std::uint64_t> out) const;
  bool has_wide() const { return fn_wide_ != nullptr; }

  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_outputs() const { return num_outputs_; }

  /// True if a host compiler appears usable (probed once per process).
  static bool is_available();

 private:
  using Fn = void (*)(const std::uint64_t*, std::uint64_t*);
  std::shared_ptr<void> object_;
  Fn fn_ = nullptr;
  Fn fn_wide_ = nullptr;
  std::size_t num_inputs_ = 0;
  std::size_t num_outputs_ = 0;
};

/// Drop-in replacement for BitslicedSampler running the compiled kernel.
class CompiledBitslicedSampler {
 public:
  static constexpr int kBatch = 64;

  /// Loads or compiles the kernel for `synth` (no persistent directory).
  explicit CompiledBitslicedSampler(SynthesizedSampler synth);

  /// Share an already-loaded kernel — the engine loads once and hands the
  /// kernel to every worker. `kernel` must have been built from an
  /// identical netlist.
  CompiledBitslicedSampler(SynthesizedSampler synth,
                           std::shared_ptr<const CompiledKernel> kernel);

  const SynthesizedSampler& synth() const { return synth_; }

  std::uint64_t sample_magnitudes(RandomBitSource& rng,
                                  std::span<std::uint32_t> out);
  std::uint64_t sample_batch(RandomBitSource& rng, std::span<std::int32_t> out);

 private:
  SynthesizedSampler synth_;
  std::shared_ptr<const CompiledKernel> kernel_;
  std::vector<std::uint64_t> in_, out_words_;
};

/// 256-lane runner over the compiled kernel's vector form — the fastest
/// single-stream base-sample producer in the library (the engine's
/// compiled backend uses it when the kernel carries the wide symbol).
/// Mirrors WideBitslicedSampler's batch/mask interface.
class WideCompiledSampler {
 public:
  static constexpr int kBatch = 256;

  /// `kernel` must carry the wide form (has_wide()) and match the synth.
  WideCompiledSampler(SynthesizedSampler synth,
                      std::shared_ptr<const CompiledKernel> kernel);

  const SynthesizedSampler& synth() const { return synth_; }

  void sample_magnitudes(RandomBitSource& rng, std::span<std::uint32_t> out,
                         std::span<std::uint64_t> valid_mask);
  void sample_batch(RandomBitSource& rng, std::span<std::int32_t> out,
                    std::span<std::uint64_t> valid_mask);

 private:
  SynthesizedSampler synth_;
  std::shared_ptr<const CompiledKernel> kernel_;
  std::vector<std::uint64_t> in_, out_words_;  // 4 words per netlist bit
};

/// Buffered IntSampler over the compiled kernel (Table 1's "this work").
class BufferedCompiledSampler final : public IntSampler {
 public:
  explicit BufferedCompiledSampler(SynthesizedSampler synth)
      : core_(std::move(synth)) {}

  std::int32_t sample(RandomBitSource& rng) override;
  std::uint32_t sample_magnitude(RandomBitSource& rng) override;
  const char* name() const override { return "bitsliced-ct-compiled"; }
  bool constant_time() const override { return true; }

 private:
  CompiledBitslicedSampler core_;
  std::vector<std::int32_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace cgs::ct
