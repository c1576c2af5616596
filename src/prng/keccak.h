#pragma once
// Keccak-f[1600] permutation and SHAKE-128/256 XOFs. SHAKE-256 is what
// Falcon's hash-to-point uses; SHAKE-128 serves as the "Keccak PRNG" in the
// paper's §7 PRNG-overhead discussion.

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/randombits.h"

namespace cgs::prng {

/// In-place Keccak-f[1600] permutation on 25 lanes.
void keccak_f1600(std::array<std::uint64_t, 25>& state);

/// Four independent Keccak-f[1600] states permuted together, one state
/// per SIMD lane (GCC vector extensions, like the 256-lane samplers; an
/// AVX2 body where the host has it, picked once per process by
/// prng/isa.h).
/// This is what lets a batched consumer — hash-to-point over a verify
/// batch — amortize the permutation the way bit-slicing amortizes the
/// sampler netlist.
using U64x4 = std::uint64_t __attribute__((vector_size(32)));
void keccak_f1600_x4(std::array<U64x4, 25>& states);

/// Incremental SHAKE sponge (capacity fixed by the variant).
class Shake {
 public:
  enum class Variant { kShake128, kShake256 };

  explicit Shake(Variant v);

  /// Absorb more input; only valid before the first squeeze.
  void absorb(std::span<const std::uint8_t> data);
  void absorb(std::string_view s);

  /// Switch to squeezing (idempotent) and emit `out.size()` bytes.
  void squeeze(std::span<std::uint8_t> out);

  /// Apply the SHAKE padding and hand back the squeeze-ready sponge
  /// state (the first squeeze permutation not yet applied). For batch
  /// consumers that drive several sponges through one vectorized
  /// keccak_f1600_x4 pass — each permutation of the returned state
  /// yields the next rate-sized block of the same stream squeeze()
  /// would produce. The Shake itself transitions to squeezing.
  std::array<std::uint64_t, 25> finalize_state();

  std::size_t rate() const { return rate_; }

  /// One-shot convenience.
  static std::vector<std::uint8_t> hash(Variant v,
                                        std::span<const std::uint8_t> data,
                                        std::size_t out_len);

 private:
  void permute_and_reset_pos();

  std::array<std::uint64_t, 25> state_{};
  std::size_t rate_;   // bytes
  std::size_t pos_ = 0;
  bool squeezing_ = false;
};

/// RandomBitSource over a seeded SHAKE-128 stream.
class ShakeSource final : public RandomBitSource {
 public:
  explicit ShakeSource(std::uint64_t seed);
  std::uint64_t next_word() override;

  std::uint64_t blocks_generated() const { return blocks_; }

 private:
  Shake shake_;
  std::array<std::uint8_t, 168> buf_{};  // SHAKE-128 rate
  std::size_t pos_ = sizeof(buf_);
  std::uint64_t blocks_ = 0;
};

}  // namespace cgs::prng
