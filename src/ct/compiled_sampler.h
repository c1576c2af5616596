#pragma once
// Compiled execution of a synthesized sampler: emit the netlist as C (the
// paper's artifact was exactly such generated C), compile it with the host
// compiler into a shared object, and call it through a function pointer.
// ~10x faster than the interpreted netlist and what the Table-1/Table-2
// "this work" rows use when available (ct::BatchSampler runs it). A kernel
// carries one entry point, for the one lane width it was emitted at: 64
// lanes (one uint64 word per netlist bit, Table 1's row and the 64-lane
// runner), or 256 / 512 lanes on GCC vector words (the engine, at the
// host's widest). Building and loading the object — and caching it on disk
// per machine — is ct/kernel_cache.h; is_available() is false when no host
// compiler can be found.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace cgs::ct {

/// The exported name of a kernel's `lanes`-lane entry point: cgs_kernel for
/// 64 lanes, cgs_kernel_w<words> (words = lanes / 64) for the vector forms.
std::string kernel_symbol(int lanes);

class CompiledKernel {
 public:
  /// Kernel entry: `lanes / 64` uint64 words per netlist bit in and out,
  /// group-major (word g of bit k at index (lanes / 64) * k + g).
  using Fn = void (*)(const std::uint64_t*, std::uint64_t*);

  /// Binds the `lanes`-lane entry point of a loaded object. `object` is
  /// the dlopen handle, released by its deleter. load_or_compile_kernel
  /// (ct/kernel_cache.h) is the one producer.
  CompiledKernel(std::shared_ptr<void> object, int lanes,
                 std::size_t num_inputs, std::size_t num_outputs);

  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  int lanes() const { return lanes_; }
  Fn fn() const { return fn_; }

  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_outputs() const { return num_outputs_; }

  /// True if a host compiler appears usable (probed once per process).
  static bool is_available();

 private:
  std::shared_ptr<void> object_;
  Fn fn_ = nullptr;
  int lanes_ = 0;
  std::size_t num_inputs_ = 0;
  std::size_t num_outputs_ = 0;
};

}  // namespace cgs::ct
