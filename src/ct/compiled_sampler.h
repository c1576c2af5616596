#pragma once
// Compiled execution of a synthesized sampler: emit the netlist as C (the
// paper's artifact was exactly such generated C), compile it with the host
// compiler into a shared object, and call it through a function pointer.
// ~10x faster than the interpreted netlist and what the Table-1/Table-2
// "this work" rows use when available (ct::BatchSampler runs it). Building
// and loading the object — and caching it on disk per machine — is
// ct/kernel_cache.h; is_available() is false when no host compiler can be
// found.

#include <cstddef>
#include <cstdint>
#include <memory>

namespace cgs::ct {

class CompiledKernel {
 public:
  using Fn = void (*)(const std::uint64_t*, std::uint64_t*);

  /// Binds the kernel symbols of a loaded object: the 64-lane form and, when
  /// the compiler took it, the 256-lane vector form. `object` is the dlopen
  /// handle, released by its deleter. load_or_compile_kernel
  /// (ct/kernel_cache.h) is the one producer.
  CompiledKernel(std::shared_ptr<void> object, std::size_t num_inputs,
                 std::size_t num_outputs);

  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  /// The entry point for `lanes` lanes per netlist bit: 64 (one word per
  /// bit) or 256 (4 words per bit, group-major: word g of bit k at index
  /// 4k + g). Null for any other width, and for 256 when the host compiler
  /// rejected vector extensions.
  Fn entry(int lanes) const {
    return lanes == 64 ? fn_ : lanes == 256 ? fn_wide_ : nullptr;
  }
  bool has_wide() const { return fn_wide_ != nullptr; }

  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_outputs() const { return num_outputs_; }

  /// True if a host compiler appears usable (probed once per process).
  static bool is_available();

 private:
  std::shared_ptr<void> object_;
  Fn fn_ = nullptr;
  Fn fn_wide_ = nullptr;
  std::size_t num_inputs_ = 0;
  std::size_t num_outputs_ = 0;
};

}  // namespace cgs::ct
