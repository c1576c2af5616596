#include "engine/engine.h"

#include <functional>
#include <span>
#include <thread>
#include <variant>

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

// One slot = one PRNG stream + one runner at the engine's lane width. The
// compiled kernel itself lives on the engine (stateless eval); the runner's
// buffers, and the interpreter's scratch, are per slot.
struct SamplerEngine::Slot {
  using Runner = std::variant<ct::BatchSampler<ct::Word256>,
                              ct::BatchSampler<ct::Word512>>;

  Slot(const SamplerEngine& engine, std::uint64_t seed)
      : rng(seed), runner(make_runner(engine)) {}

  static Runner make_runner(const SamplerEngine& engine) {
    if (!engine.kernel_)
      return Runner(std::in_place_index<0>, *engine.synth_);
    if (engine.kernel_->lanes() == 512)
      return Runner(std::in_place_index<1>, *engine.synth_, engine.kernel_);
    return Runner(std::in_place_index<0>, *engine.synth_, engine.kernel_);
  }

  void fill(std::span<std::int32_t> out) {
    std::visit([&](auto& runner) { runner.fill(rng, out); }, runner);
  }

  prng::ChaCha20Source rng;
  // Every runner consumes `rng` in one order — per 256-lane unit, 4
  // interleaved words per input bit, then 4 sign words — so for a fixed
  // seed the engine's sample stream is bit-identical across compiled and
  // interpreted, 256 and 512 lanes (Engine.StreamsIdenticalAcross* and the
  // cross-backend differential grid in test_service hold this).
  Runner runner;
};

SamplerEngine::SamplerEngine(
    std::shared_ptr<const ct::SynthesizedSampler> synth, EngineOptions options)
    : synth_(std::move(synth)), backend_(options.backend) {
  CGS_CHECK_MSG(synth_ != nullptr, "engine: null sampler");

  if (backend_ == Backend::kAuto || backend_ == Backend::kCompiled) {
    if (ct::CompiledKernel::is_available()) {
      try {
        // A compiler without GCC vector extensions fails here: the
        // compiled backend is unavailable there.
        const int lanes = ct::host_kernel_lanes();
        kernel_ = options.registry
                      ? options.registry->kernel(*synth_, lanes)
                      : ct::load_or_compile_kernel(
                            ct::KernelSource(*synth_, lanes))
                            .kernel;
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

int SamplerEngine::lanes() const {
  return kernel_ ? kernel_->lanes() : ct::WideBitslicedSampler::kBatch;
}

void SamplerEngine::sample(std::span<std::int32_t> out) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = out.size();
  if (n == 0) return;

  // Below one draw unit per slot a fan-out costs more than it saves — and
  // a slot handed less than one unit still pays a full netlist eval to keep
  // a fraction of it. Serve inline from slot 0's stream. The threshold is
  // in draw units, not batches, so the split does not depend on the width.
  const std::size_t num_slots = slots_.size();
  if (num_slots == 1 || n < num_slots * ct::kDrawUnitLanes) {
    slots_[0]->fill(out);
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
        if (!slice.empty()) slot.fill(slice);
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
