#pragma once
// ChaCha20 (the RFC 8439 block function) as a RandomBitSource — the PRNG
// the paper benches against (its Table 1/2 rows all draw path bits from
// ChaCha20). The bit-sliced samplers consume one word per precision bit
// per batch, so at 128-bit precision the PRNG is a first-order term of the
// whole online path (the overhead the paper's §3.3 and §7 account for).
//
// Every word comes from a keystream core that generates 16 blocks (1 KiB)
// per call: an AVX-512F body (512-bit rotates, an in-register 16x16
// transpose) where the host has it, else an 8-block GCC-vector body called
// twice, compiled for AVX2 and for the baseline ISA. The core is picked
// once per process (prng/isa.h). The block counter is 64 bits wide, in
// words 12 and 13 (DJB's original layout), so a stream never repeats.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/randombits.h"
#include "prng/isa.h"

namespace cgs::prng {

/// Keystream words per core call: 16 blocks of 64 bytes.
inline constexpr std::size_t kChaChaCoreWords = 128;

/// A keystream core: blocks counter .. counter + 15 of `state`'s stream,
/// as 128 words in stream order (on a little-endian host, word w of the
/// stream is bytes 8w..8w+7). Words 12 and 13 of `state` are ignored: the
/// 64-bit block counter takes their place, low half in word 12.
using ChaChaCore = void (*)(const std::array<std::uint32_t, 16>& state,
                            std::uint64_t counter, std::uint64_t* out);

/// The core compiled for `isa`; null where it was not built (off x86-64).
/// The caller checks host_vector_isa() before running a wider one.
ChaChaCore chacha20_core(VectorIsa isa);

/// The 16 input words of the stream ChaCha20Source(seed) emits: the
/// constants, a key expanded from the seed, zero counter and nonce words.
std::array<std::uint32_t, 16> chacha20_seed_state(std::uint64_t seed);

class ChaCha20Source final : public RandomBitSource {
 public:
  /// Deterministic stream from a 64-bit seed (expanded into the key),
  /// starting at block `first_block` (0 but in tests).
  explicit ChaCha20Source(std::uint64_t seed, std::uint64_t first_block = 0)
      : state_(chacha20_seed_state(seed)),
        core_(chacha20_core(host_vector_isa())),
        counter_(first_block) {}

  std::uint64_t next_word() override {
    if (pos_ == kChaChaCoreWords) refill();
    return buf_[pos_++];
  }

  /// Bulk keystream, identical to the same number of next_word() calls:
  /// the head and tail come from the buffer, whole 128-word runs are
  /// generated straight into `out`.
  void fill_words(std::span<std::uint64_t> out) override;

 private:
  void refill();

  std::array<std::uint32_t, 16> state_;
  ChaChaCore core_;
  std::uint64_t counter_;  // next block to generate
  std::size_t pos_ = kChaChaCoreWords;  // next word of buf_; 128 == empty
  alignas(64) std::array<std::uint64_t, kChaChaCoreWords> buf_;
};

}  // namespace cgs::prng
