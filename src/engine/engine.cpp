#include "engine/engine.h"

#include <span>
#include <thread>

#include "common/check.h"
#include "common/randombits.h"
#include "ct/bitsliced_sampler.h"
#include "ct/compiled_sampler.h"
#include "ct/kernel_cache.h"
#include "ct/wide_sampler.h"
#include "engine/registry.h"
#include "prng/chacha20.h"
#include "prng/splitmix.h"

namespace cgs::engine {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kAuto: return "auto";
    case Backend::kCompiled: return "compiled";
    case Backend::kWide: return "wide-256";
    case Backend::kBitsliced: return "bitsliced-64";
  }
  return "?";
}

namespace {

// Serves one 64-lane group its slice of a wide round's bulk word draw:
// the wide sampler interleaves 4 words per input bit (then 4 sign words),
// so group g's i-th word is slot 4i + g. Replaying through this adapter
// makes a narrow backend reproduce the wide backend's exact lane values —
// the engine's cross-backend stream identity.
class StridedWordSource final : public RandomBitSource {
 public:
  StridedWordSource(std::span<const std::uint64_t> words, int group)
      : words_(words), group_(static_cast<std::size_t>(group)) {}

  std::uint64_t next_word() override {
    const std::size_t slot = 4 * pos_++ + group_;
    CGS_CHECK_MSG(slot < words_.size(),
                  "engine: narrow batch drew past its wide-round words");
    return words_[slot];
  }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t group_;
  std::size_t pos_ = 0;
};

}  // namespace

// One worker = one PRNG stream + one backend instance's worth of buffers.
// The compiled kernel itself lives on the engine (stateless eval); the
// interpreted backends are per-worker because they carry scratch state.
struct SamplerEngine::Worker {
  Worker(SamplerEngine& engine, std::uint64_t seed)
      : rng(seed), engine_(engine) {
    const auto& synth = *engine.synth_;
    switch (engine.backend_) {
      case Backend::kCompiled:
        // The kernel's 256-lane vector form is ~the wide interpreter's
        // batch width at compiled speed; fall back to the 64-lane symbol
        // on host compilers without vector extensions.
        if (engine.kernel_->has_wide())
          wide_compiled =
              std::make_unique<ct::WideCompiledSampler>(synth, engine.kernel_);
        else
          compiled = std::make_unique<ct::CompiledBitslicedSampler>(
              synth, engine.kernel_);
        break;
      case Backend::kWide:
        wide = std::make_unique<ct::WideBitslicedSampler>(synth);
        break;
      case Backend::kBitsliced:
        interp = std::make_unique<ct::BitslicedSampler>(synth);
        break;
      case Backend::kAuto:
        CGS_CHECK_MSG(false, "engine: backend unresolved");
    }
  }

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
          fill(slice);
        } catch (...) {
          error = std::current_exception();
        }
      }
      lock.lock();
      if (error && !engine_.pool_error_) engine_.pool_error_ = error;
      if (--engine_.pending_ == 0) engine_.done_cv_.notify_one();
    }
  }

  /// Append valid signed samples until `out` is full. Invalid lanes (a DDG
  /// restart; ~never at cryptographic precision) are dropped, exactly like
  /// the buffered single-stream samplers.
  ///
  /// Every backend consumes the PRNG in the *wide* order — 4 interleaved
  /// words per input bit, then 4 sign words — so for a fixed seed the
  /// engine's sample stream is bit-identical across compiled / wide /
  /// bitsliced (the cross-backend differential grid in test_service holds
  /// this). The 64-lane backends get there by bulk-drawing one wide
  /// round's words and replaying group g's strided slice (words 4k + g)
  /// through four narrow batches.
  void fill(std::span<std::int32_t> out) {
    // At any real precision P(all 64 lanes invalid) is astronomically small,
    // so consecutive empty batches mean a pathological netlist — e.g. a
    // crafted cache file whose valid bit is never true, which passes every
    // static shape check. Fail loudly rather than spin forever.
    constexpr int kMaxEmptyBatches = 1000;
    int empty_streak = 0;
    std::size_t pos = 0;
    while (pos < out.size()) {
      const std::size_t before = pos;
      if (wide || wide_compiled) {
        std::int32_t batch[ct::WideBitslicedSampler::kBatch];
        std::uint64_t mask[4];
        if (wide)
          wide->sample_batch(rng, batch, mask);
        else
          wide_compiled->sample_batch(rng, batch, mask);
        for (int lane = 0; lane < ct::WideBitslicedSampler::kBatch && pos < out.size(); ++lane)
          if ((mask[lane / 64] >> (lane % 64)) & 1u) out[pos++] = batch[lane];
      } else {
        // One wide round's randomness: per narrow batch the sampler draws
        // `precision` magnitude words plus one sign word.
        const auto per_group =
            static_cast<std::size_t>(engine_.synth_->precision) + 1;
        round_words.resize(4 * per_group);
        rng.fill_words(round_words);
        for (int group = 0; group < 4; ++group) {
          StridedWordSource src(round_words, group);
          std::int32_t batch[ct::BitslicedSampler::kBatch];
          const std::uint64_t valid = interp
                                          ? interp->sample_batch(src, batch)
                                          : compiled->sample_batch(src, batch);
          for (int lane = 0; lane < ct::BitslicedSampler::kBatch && pos < out.size(); ++lane)
            if ((valid >> lane) & 1u) out[pos++] = batch[lane];
        }
      }
      empty_streak = pos == before ? empty_streak + 1 : 0;
      CGS_CHECK_MSG(empty_streak < kMaxEmptyBatches,
                    "engine: sampler produced no valid lanes for "
                        << kMaxEmptyBatches << " consecutive batches");
    }
  }

  prng::ChaCha20Source rng;
  std::thread thread;                // pool thread (empty for worker 0 solo)
  std::span<std::int32_t> task;      // slice for the current generation
  std::vector<std::uint64_t> round_words;  // 64-lane wide-round replay buffer

 private:
  SamplerEngine& engine_;
  std::unique_ptr<ct::WideBitslicedSampler> wide;
  std::unique_ptr<ct::WideCompiledSampler> wide_compiled;
  std::unique_ptr<ct::BitslicedSampler> interp;
  std::unique_ptr<ct::CompiledBitslicedSampler> compiled;
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
  // handed less than one batch still pays a full netlist eval (256 lanes on
  // the wide backend) to keep a fraction of it. Serve inline on the calling
  // thread (worker 0's stream — safe: no generation is in flight while mu_
  // is held, so its pool thread is parked).
  const std::size_t batch =
      backend_ == Backend::kWide ||
              (backend_ == Backend::kCompiled && kernel_->has_wide())
          ? ct::WideBitslicedSampler::kBatch
          : ct::BitslicedSampler::kBatch;
  const std::size_t num_workers = workers_.size();
  if (num_workers == 1 || n < num_workers * batch) {
    workers_[0]->fill(out);
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
