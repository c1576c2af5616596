#include "ct/compiled_sampler.h"

#include <dlfcn.h>

#include "common/check.h"

namespace cgs::ct {

std::string kernel_symbol(int lanes) {
  CGS_CHECK_MSG(lanes == 64 || lanes == 256 || lanes == 512,
                "kernel: no " << lanes << "-lane form");
  return lanes == 64 ? "cgs_kernel"
                     : "cgs_kernel_w" + std::to_string(lanes / 64);
}

CompiledKernel::CompiledKernel(std::shared_ptr<void> object, int lanes,
                               std::size_t num_inputs,
                               std::size_t num_outputs)
    : object_(std::move(object)),
      lanes_(lanes),
      num_inputs_(num_inputs),
      num_outputs_(num_outputs) {
  CGS_CHECK_MSG(object_ != nullptr, "kernel: null object");
  fn_ = reinterpret_cast<Fn>(
      dlsym(object_.get(), kernel_symbol(lanes).c_str()));
  CGS_CHECK_MSG(fn_ != nullptr, "kernel symbol missing");
}

}  // namespace cgs::ct
