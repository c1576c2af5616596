#include "engine/engine.h"

#include <functional>
#include <span>
#include <thread>

#include "common/check.h"
#include "common/randombits.h"
#include "common/task_crew.h"
#include "ct/batch_sampler.h"
#include "ct/kernel_cache.h"
#include "engine/registry.h"
#include "prng/chacha20.h"
#include "prng/splitmix.h"

namespace cgs::engine {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kAuto: return "auto";
    case Backend::kCompiled: return "compiled";
    case Backend::kWide: return "wide-256";
  }
  return "?";
}

// One slot = one PRNG stream + one 256-lane runner. The compiled kernel
// itself lives on the engine (stateless eval); the runner's buffers, and
// the interpreter's scratch, are per slot.
struct SamplerEngine::Slot {
  Slot(SamplerEngine& engine, std::uint64_t seed)
      : rng(seed),
        sampler(engine.kernel_
                    ? ct::WideBitslicedSampler(*engine.synth_, engine.kernel_)
                    : ct::WideBitslicedSampler(*engine.synth_)) {}

  prng::ChaCha20Source rng;
  // Both evaluators consume `rng` in one order — 4 interleaved words per
  // input bit, then 4 sign words — so for a fixed seed the engine's sample
  // stream is bit-identical across compiled and interpreted (the
  // cross-backend differential grid in test_service holds this).
  ct::WideBitslicedSampler sampler;
};

SamplerEngine::SamplerEngine(
    std::shared_ptr<const ct::SynthesizedSampler> synth, EngineOptions options)
    : synth_(std::move(synth)), backend_(options.backend) {
  CGS_CHECK_MSG(synth_ != nullptr, "engine: null sampler");

  if (backend_ == Backend::kAuto || backend_ == Backend::kCompiled) {
    if (ct::CompiledKernel::is_available()) {
      try {
        kernel_ = options.registry
                      ? options.registry->kernel(*synth_)
                      : ct::load_or_compile_kernel(ct::KernelSource(*synth_))
                            .kernel;
        // The scalar rung (a compiler without vector extensions) has no
        // 256-lane form: the compiled backend is unavailable there.
        CGS_CHECK_MSG(kernel_->has_wide(), "kernel has no 256-lane form");
        backend_ = Backend::kCompiled;
      } catch (const Error& e) {
        CGS_CHECK_MSG(backend_ != Backend::kCompiled,
                      "engine: compiled backend requested but unavailable: "
                          << e.what());
        kernel_.reset();
      }
    } else {
      CGS_CHECK_MSG(backend_ != Backend::kCompiled,
                    "engine: compiled backend requested but no host compiler");
    }
    if (!kernel_) backend_ = Backend::kWide;
  }

  int slots = options.num_threads;
  if (slots <= 0) slots = std::max(1u, std::thread::hardware_concurrency());
  // SplitMix64 over the root seed: statistically independent 64-bit seeds
  // per slot, so the ChaCha20 streams never overlap keys.
  prng::SplitMix64Source seeder(options.root_seed);
  for (int i = 0; i < slots; ++i)
    slots_.push_back(std::make_unique<Slot>(*this, seeder.next_word()));
}

SamplerEngine::~SamplerEngine() = default;

void SamplerEngine::sample(std::span<std::int32_t> out) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = out.size();
  if (n == 0) return;

  // Below one batch per slot a fan-out costs more than it saves — and a
  // slot handed less than one batch still pays a full 256-lane netlist
  // eval to keep a fraction of it. Serve inline from slot 0's stream.
  const std::size_t num_slots = slots_.size();
  if (num_slots == 1 || n < num_slots * ct::WideBitslicedSampler::kBatch) {
    slots_[0]->sampler.fill(slots_[0]->rng, out);
  } else {
    const std::size_t chunk = (n + num_slots - 1) / num_slots;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_slots);
    for (std::size_t i = 0; i < num_slots; ++i) {
      const std::size_t begin = std::min(i * chunk, n);
      const std::span<std::int32_t> slice =
          out.subspan(begin, std::min(chunk, n - begin));
      Slot& slot = *slots_[i];
      tasks.push_back([&slot, slice] {
        if (!slice.empty()) slot.sampler.fill(slot.rng, slice);
      });
    }
    TaskCrew::shared().run(std::move(tasks));
  }
  total_samples_ += n;
}

std::vector<std::int32_t> SamplerEngine::sample(std::size_t n) {
  std::vector<std::int32_t> out(n);
  sample(out);
  return out;
}

}  // namespace cgs::engine
