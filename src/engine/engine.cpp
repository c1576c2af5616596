#include "engine/engine.h"

#include <span>
#include <thread>

#include "common/check.h"
#include "common/randombits.h"
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

// One worker = one PRNG stream + one 256-lane runner. The compiled kernel
// itself lives on the engine (stateless eval); the runner's buffers, and
// the interpreter's scratch, are per worker.
struct SamplerEngine::Worker {
  Worker(SamplerEngine& engine, std::uint64_t seed)
      : rng(seed),
        sampler(engine.kernel_
                    ? ct::WideBitslicedSampler(*engine.synth_, engine.kernel_)
                    : ct::WideBitslicedSampler(*engine.synth_)),
        engine_(engine) {}

  ~Worker() { CGS_DCHECK(!thread.joinable()); }

  /// Pool loop: wait for a dispatched generation, run the assigned slice,
  /// report completion. Started only when the engine has > 1 worker.
  void run() {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> lock(engine_.pool_mu_);
      engine_.work_cv_.wait(lock, [&] {
        return engine_.stopping_ || engine_.generation_ != seen;
      });
      if (engine_.stopping_) return;
      seen = engine_.generation_;
      const std::span<std::int32_t> slice = task;
      lock.unlock();
      std::exception_ptr error;
      if (!slice.empty()) {
        // An escaped exception would std::terminate the process (and leave
        // pending_ stuck); hand it to the dispatching thread instead.
        try {
          sampler.fill(rng, slice);
        } catch (...) {
          error = std::current_exception();
        }
      }
      lock.lock();
      if (error && !engine_.pool_error_) engine_.pool_error_ = error;
      if (--engine_.pending_ == 0) engine_.done_cv_.notify_one();
    }
  }

  prng::ChaCha20Source rng;
  // Both evaluators consume `rng` in one order — 4 interleaved words per
  // input bit, then 4 sign words — so for a fixed seed the engine's sample
  // stream is bit-identical across compiled and interpreted (the
  // cross-backend differential grid in test_service holds this).
  ct::WideBitslicedSampler sampler;
  std::thread thread;                // pool thread (empty for worker 0 solo)
  std::span<std::int32_t> task;      // slice for the current generation

 private:
  SamplerEngine& engine_;
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

  int threads = options.num_threads;
  if (threads <= 0)
    threads = std::max(1u, std::thread::hardware_concurrency());
  // SplitMix64 over the root seed: statistically independent 64-bit seeds
  // per worker, so the ChaCha20 streams never overlap keys.
  prng::SplitMix64Source seeder(options.root_seed);
  for (int i = 0; i < threads; ++i)
    workers_.push_back(std::make_unique<Worker>(*this, seeder.next_word()));
  if (workers_.size() > 1) {
    try {
      for (auto& w : workers_) w->thread = std::thread([worker = w.get()] {
        worker->run();
      });
    } catch (...) {
      // A failed spawn (thread exhaustion) must join the threads already
      // started: unwinding with joinable std::thread members would
      // std::terminate, and they wait on condvars this object owns.
      {
        std::lock_guard<std::mutex> lock(pool_mu_);
        stopping_ = true;
      }
      work_cv_.notify_all();
      for (auto& w : workers_)
        if (w->thread.joinable()) w->thread.join();
      throw;
    }
  }
}

SamplerEngine::~SamplerEngine() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

void SamplerEngine::sample(std::span<std::int32_t> out) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = out.size();
  if (n == 0) return;

  // Below one batch per worker the handshake cost dominates — and a worker
  // handed less than one batch still pays a full 256-lane netlist eval to
  // keep a fraction of it. Serve inline on the calling thread (worker 0's
  // stream — safe: no generation is in flight while mu_ is held, so its
  // pool thread is parked).
  const std::size_t num_workers = workers_.size();
  if (num_workers == 1 ||
      n < num_workers * ct::WideBitslicedSampler::kBatch) {
    workers_[0]->sampler.fill(workers_[0]->rng, out);
    total_samples_ += n;
    return;
  }

  const std::size_t chunk = (n + num_workers - 1) / num_workers;
  {
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    for (std::size_t i = 0; i < num_workers; ++i) {
      const std::size_t begin = std::min(i * chunk, n);
      workers_[i]->task = out.subspan(begin, std::min(chunk, n - begin));
    }
    pending_ = num_workers;
    ++generation_;
  }
  work_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> pool_lock(pool_mu_);
    done_cv_.wait(pool_lock, [&] { return pending_ == 0; });
    std::swap(error, pool_error_);
  }
  if (error) std::rethrow_exception(error);
  total_samples_ += n;
}

std::vector<std::int32_t> SamplerEngine::sample(std::size_t n) {
  std::vector<std::int32_t> out(n);
  sample(out);
  return out;
}

}  // namespace cgs::engine
