#include "ct/compiled_sampler.h"

#include <dlfcn.h>

#include "common/check.h"

namespace cgs::ct {

CompiledKernel::CompiledKernel(std::shared_ptr<void> object,
                               std::size_t num_inputs,
                               std::size_t num_outputs)
    : object_(std::move(object)),
      num_inputs_(num_inputs),
      num_outputs_(num_outputs) {
  CGS_CHECK_MSG(object_ != nullptr, "kernel: null object");
  fn_ = reinterpret_cast<Fn>(dlsym(object_.get(), "cgs_kernel"));
  CGS_CHECK_MSG(fn_ != nullptr, "kernel symbol missing");
  // Absent only if the host compiler rejects vector extensions — the
  // scalar form still serves, callers check has_wide().
  fn_wide_ = reinterpret_cast<Fn>(dlsym(object_.get(), "cgs_kernel_w4"));
}

}  // namespace cgs::ct
