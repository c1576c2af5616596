#pragma once
// BlockSource: the pull-based block supply behind the batch-first online
// path. The bit-sliced samplers produce 64+ samples per netlist pass, so
// consumers that pull one scalar at a time (Falcon's SamplerZ before this
// refactor) waste exactly the amortization the paper measures. A
// BlockSource instead hands out base Gaussian samples and uniform random
// words an engine-sized block at a time; consumers drain a prefetched ring
// and refill it with one virtual call per block instead of one per sample.
//
// preferred_block() lets each producer advertise its natural granularity:
// ScalarBlockSource says 1 (so the CDT baselines stay genuinely scalar — no
// hidden prefetch, no discarded randomness), batch producers say a
// multiple of their lane count.

#include <cstdint>
#include <span>

#include "common/randombits.h"
#include "common/sampler.h"

namespace cgs {

class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /// Fill `out` with signed samples from the base discrete Gaussian.
  virtual void fill_base(std::span<std::int32_t> out) = 0;

  /// Fill `out` with uniform 64-bit words (rejection uniforms, nonces).
  virtual void fill_words(std::span<std::uint64_t> out) = 0;

  /// The refill size consumers should buffer at (>= 1). Pulling smaller
  /// spans is allowed but forfeits amortization.
  virtual std::size_t preferred_block() const = 0;

  /// Human-readable name for benches/tables.
  virtual const char* name() const = 0;

  /// Whether the base-sample producer is constant-time by construction.
  virtual bool constant_time() const = 0;
};

/// Adapts a scalar IntSampler + RandomBitSource pair (both not owned) to
/// the block interface, one virtual call per element — the plug-in point
/// for Table 1's CDT variants, which have no batch form.
/// preferred_block() == 1 keeps draw order identical to the historical
/// scalar loop.
class ScalarBlockSource final : public BlockSource {
 public:
  ScalarBlockSource(IntSampler& base, RandomBitSource& rng)
      : base_(&base), rng_(&rng) {}

  void fill_base(std::span<std::int32_t> out) override {
    for (auto& v : out) v = base_->sample(*rng_);
  }
  void fill_words(std::span<std::uint64_t> out) override {
    rng_->fill_words(out);
  }
  std::size_t preferred_block() const override { return 1; }
  const char* name() const override { return base_->name(); }
  bool constant_time() const override { return base_->constant_time(); }

 private:
  IntSampler* base_;
  RandomBitSource* rng_;
};

}  // namespace cgs
