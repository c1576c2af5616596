#pragma once
// EngineBlockSource: the production BlockSource — base-sample refills are
// served by a SamplerEngine (one request fans out across every lane of the
// selected backend and, on multi-slot engines, every slot at once), and
// uniform words come from a dedicated ChaCha20 stream so rejection uniforms
// and nonces never perturb the engine's per-slot netlist streams. One
// instance per consumer; the engine itself may be shared (its sample()
// serializes internally) but sharing forfeits per-consumer determinism —
// the SigningService gives each slot a private engine.

#include <cstdint>

#include "common/blocksource.h"
#include "engine/engine.h"
#include "prng/chacha20.h"

namespace cgs::engine {

class EngineBlockSource final : public BlockSource {
 public:
  /// `engine` (not owned) must outlive the source. `word_seed` keys the
  /// auxiliary word stream; derive it from the same root seed as the
  /// engine's so the pair stays deterministic as a unit.
  EngineBlockSource(SamplerEngine& engine, std::uint64_t word_seed,
                    std::size_t block = 1024);

  void fill_base(std::span<std::int32_t> out) override;
  void fill_words(std::span<std::uint64_t> out) override;
  std::size_t preferred_block() const override { return block_; }
  const char* name() const override;
  bool constant_time() const override { return true; }

  SamplerEngine& engine() { return *engine_; }

 private:
  SamplerEngine* engine_;
  prng::ChaCha20Source words_;
  std::size_t block_;
};

}  // namespace cgs::engine
