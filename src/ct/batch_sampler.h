#pragma once
// The runtime half of the paper: feed W lanes of random bits through the
// synthesized netlist, unpack W magnitude samples per batch, fold in one
// sign word per 64 lanes. One netlist input word per precision bit; lane i
// of input word k is path bit b_k of sample i.
//
// The lane word is the template parameter: std::uint64_t is the paper's
// 64-lane word, Word256 and Word512 GCC vectors of four and eight (256 and
// 512 lanes; AVX2 / AVX-512 in a host-compiled kernel). The evaluator is
// picked at construction: the interpreted netlist, or the compiled
// kernel's entry point for that width. Everything around the evaluation —
// the random draw, the lane unpack, the sign fold, the valid mask and the
// compaction of valid lanes — exists once, here.
//
// Random words are drawn in units of 256 lanes (kDrawUnitLanes): per unit,
// its 4 words per precision bit, then its 4 sign words. A 512-lane pass
// evaluates two consecutive units, drawn in that order, and fill() draws
// only the units a request still needs, so a 256- and a 512-lane runner
// give one stream per seed. The 512-lane unpack runs in registers where
// the host has AVX-512 VBMI (prng/isa.h).

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/sampler.h"
#include "ct/compiled_sampler.h"
#include "ct/synthesis.h"

namespace cgs::ct {

/// Four 64-bit lane groups per word; group g of input word k holds path
/// bit k of samples 64g..64g+63 — in the flat uint64 layout the runner and
/// the compiled 256-lane kernel use, word g of bit k sits at index 4k + g.
using Word256 = std::uint64_t __attribute__((vector_size(32)));
/// Eight lane groups: two 256-lane draw units side by side, unit u in
/// groups 4u..4u+3.
using Word512 = std::uint64_t __attribute__((vector_size(64)));

/// Lanes per random-draw unit (see the file comment).
inline constexpr int kDrawUnitLanes = 256;

/// The lane width the engine runs a compiled kernel at on this host: 512
/// where AVX-512 VBMI is present (prng::host_vector_isa()), so the pass
/// comes with the in-register unpack, else 256. AVX-512F without VBMI
/// stays at 256: the 512-lane pass with the generic unpack has not been
/// measured on such a host.
int host_kernel_lanes();

/// Lane transpose of one batch, all lane groups at once, with the sign
/// fold: plane k (`planes[k * G + g]`, G = the Word's 64-bit groups) holds
/// bit k of lanes 64g..64g+63; bit i of `signs[g]` negates lane 64g + i.
/// Writes the kBatch signed m-bit lane values to `out` in lane order
/// (all-zero `signs` leave plain magnitudes). For m <= 7 every lane fits a
/// signed byte: the bits are gathered and the sign folded eight lanes to a
/// 64-bit word with shifts and masks only (no multiply, no table), then
/// widened to int32; wider magnitudes go lane by lane.
template <typename Word>
void unpack_batch(const std::uint64_t* planes, int m,
                  const std::uint64_t* signs, std::int32_t* out);

#if defined(__x86_64__)
/// unpack_batch<Word512> with the m <= 7 byte path in registers
/// (ct/lane_unpack.h); m > 7 goes lane by lane. Needs
/// prng::host_vector_isa() >= VectorIsa::kAvx512vbmi.
void unpack_batch_avx512(const std::uint64_t* planes, int m,
                         const std::uint64_t* signs, std::int32_t* out);
#endif

template <typename Word>
class BatchSampler {
 public:
  static constexpr int kGroups = sizeof(Word) / sizeof(std::uint64_t);
  static constexpr int kBatch = 64 * kGroups;
  /// Lanes per random-draw unit: 256, or the whole batch if narrower.
  static constexpr int kUnitLanes =
      kBatch < kDrawUnitLanes ? kBatch : kDrawUnitLanes;
  /// Bit i of mask[g] is set iff lane 64g + i hit a DDG leaf (~always
  /// all-ones at cryptographic precision).
  using Mask = std::array<std::uint64_t, kGroups>;

  /// Evaluates the netlist interpreted.
  explicit BatchSampler(SynthesizedSampler synth);
  /// Runs `kernel`'s entry point for kBatch lanes. The kernel must have
  /// been built from an identical netlist and carry that entry point.
  BatchSampler(SynthesizedSampler synth,
               std::shared_ptr<const CompiledKernel> kernel);

  const SynthesizedSampler& synth() const { return synth_; }
  bool compiled() const { return kernel_ != nullptr; }

  /// Random words consumed per full batch: kGroups per precision bit plus
  /// kGroups sign words.
  int words_per_batch() const { return kGroups * (synth_.precision + 1); }

  /// One batch of magnitudes, every unit drawn; `out` must hold kBatch
  /// entries.
  Mask sample_magnitudes(RandomBitSource& rng, std::span<std::uint32_t> out);

  /// One batch of signed samples: the magnitudes, then one sign word per
  /// lane group.
  Mask sample_batch(RandomBitSource& rng, std::span<std::int32_t> out);

  using Unpack = void (*)(const std::uint64_t*, int, const std::uint64_t*,
                          std::int32_t*);
  /// The unpack this runner uses on this host: unpack_batch<Word>, or for
  /// Word512 on AVX-512 VBMI hosts unpack_batch_avx512.
  static Unpack select_unpack();

  /// Fills `out` with the valid lanes of as many batches as it takes; the
  /// rest of the last batch is dropped, and a pass draws only the units
  /// still needed. Batches land straight in `out` while a whole one fits,
  /// compacted in place only if a lane is invalid.
  void fill(RandomBitSource& rng, std::span<std::int32_t> out);

 private:
  static constexpr int kUnits = kBatch / kUnitLanes;
  static constexpr int kUnitGroups = kUnitLanes / 64;

  /// One batch into `out` (kBatch entries) from the first `units` draw
  /// units: their random inputs and, if `with_signs`, sign words, the
  /// netlist pass and the unpack. Lanes of units not drawn are invalid.
  Mask run(RandomBitSource& rng, bool with_signs, std::int32_t* out,
           int units = kUnits);
  void eval();

  SynthesizedSampler synth_;
  std::shared_ptr<const CompiledKernel> kernel_;  // null: interpreted
  CompiledKernel::Fn fn_ = nullptr;
  Unpack unpack_ = select_unpack();
  // Flat lane words, kGroups per netlist bit (see Word256). With one unit
  // per pass the draw lands in `in_` and its sign words trail the inputs;
  // wider words draw into `draw_` and spread each unit into its groups.
  std::vector<std::uint64_t> in_, out_, draw_;
  // Interpreter only: one Word per node, then the inputs and outputs.
  std::vector<Word> scratch_;
};

extern template class BatchSampler<std::uint64_t>;
extern template class BatchSampler<Word256>;
extern template class BatchSampler<Word512>;

using BitslicedSampler = BatchSampler<std::uint64_t>;
using WideBitslicedSampler = BatchSampler<Word256>;

/// IntSampler over the 64-lane runner: batches internally and serves one
/// sample at a time, dropping invalid lanes (a restart, exactly like the
/// reference sampler). Table 1's "this work" row.
class BufferedSampler final : public IntSampler {
 public:
  explicit BufferedSampler(SynthesizedSampler synth)
      : core_(std::move(synth)) {}
  BufferedSampler(SynthesizedSampler synth,
                  std::shared_ptr<const CompiledKernel> kernel)
      : core_(std::move(synth), std::move(kernel)) {}

  std::int32_t sample(RandomBitSource& rng) override;
  std::uint32_t sample_magnitude(RandomBitSource& rng) override;
  const char* name() const override {
    return core_.compiled() ? "bitsliced-ct-compiled"
                            : "bitsliced-ct(this work)";
  }
  bool constant_time() const override { return true; }

 private:
  BitslicedSampler core_;
  std::array<std::int32_t, BitslicedSampler::kBatch> buf_{};
  std::size_t pos_ = BitslicedSampler::kBatch;
};

}  // namespace cgs::ct
