#include "prng/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cgs::prng {

namespace {

// The cores run the scalar RFC 8439 rounds verbatim on GCC vectors: lane j
// of every vector is block (counter + j)'s state word. Each core is this
// shared body inlined into a function compiled for its ISA; the helpers
// take vectors by reference so that nothing crosses a call with a
// mismatched vector ABI, even at -O0.
using u32x8 = std::uint32_t __attribute__((vector_size(32)));
using u32x16 = std::uint32_t __attribute__((vector_size(64)));

template <typename V>
[[gnu::always_inline]] inline void quarter_round(V& a, V& b, V& c, V& d) {
  a += b; d ^= a; d = (d << 16) | (d >> 16);
  c += d; b ^= c; b = (b << 12) | (b >> 20);
  a += b; d ^= a; d = (d << 8) | (d >> 24);
  c += d; b ^= c; b = (b << 7) | (b >> 25);
}

/// Blocks counter .. counter + lanes - 1 into `x`, word-major: x[i] lane
/// j is word i of block counter + j. The counter carries from word 12
/// into word 13 per lane.
template <typename V>
[[gnu::always_inline]] inline void blocks(
    const std::array<std::uint32_t, 16>& state, std::uint64_t counter,
    V (&x)[16]) {
  constexpr int kLanes = sizeof(V) / sizeof(std::uint32_t);
  V s[16];
  for (int i = 0; i < 16; ++i) s[i] = V{} + state[static_cast<std::size_t>(i)];
  V iota{};
  for (int j = 0; j < kLanes; ++j) iota[j] = static_cast<std::uint32_t>(j);
  const V lo = V{} + static_cast<std::uint32_t>(counter);
  s[12] = lo + iota;
  s[13] = (V{} + static_cast<std::uint32_t>(counter >> 32)) -
          reinterpret_cast<V>(s[12] < lo);  // a true lane compares as -1
  for (int i = 0; i < 16; ++i) x[i] = s[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += s[i];
}

/// Two 8-block passes; the lane extracts store each block in stream byte
/// order.
[[gnu::always_inline]] inline void core8x2(
    const std::array<std::uint32_t, 16>& state, std::uint64_t counter,
    std::uint64_t* out) {
  auto* bytes = reinterpret_cast<unsigned char*>(out);
  for (int half = 0; half < 2; ++half) {
    u32x8 x[16];
    blocks(state, counter + 8 * static_cast<std::uint64_t>(half), x);
    for (int j = 0; j < 8; ++j) {
      unsigned char* block = bytes + 512 * half + 64 * j;
      for (int i = 0; i < 16; ++i) {
        const std::uint32_t v = x[i][j];
        if constexpr (std::endian::native == std::endian::little) {
          std::memcpy(block + 4 * i, &v, 4);
        } else {
          for (int b = 0; b < 4; ++b)
            block[4 * i + b] = static_cast<unsigned char>(v >> (8 * b));
        }
      }
    }
  }
}

void core_generic(const std::array<std::uint32_t, 16>& state,
                  std::uint64_t counter, std::uint64_t* out) {
  core8x2(state, counter, out);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void core_avx2(
    const std::array<std::uint32_t, 16>& state, std::uint64_t counter,
    std::uint64_t* out) {
  core8x2(state, counter, out);
}

// GCC 12's avx512fintrin.h self-initializes the "undefined" pass-through
// operand of the unmasked shuffles, which -Wuninitialized then reports at
// every inlined use (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
/// Sixteen blocks in one pass (the rotates lower to vprold), then a 16x16
/// transpose of 32-bit words in registers: 32-bit and 64-bit unpacks
/// gather four words of four blocks per 128-bit lane, two rounds of
/// 128-bit lane shuffles finish the blocks, and each block is stored
/// straight into `out`.
__attribute__((target("avx512f"))) void core_avx512f(
    const std::array<std::uint32_t, 16>& state, std::uint64_t counter,
    std::uint64_t* out) {
  u32x16 x[16];
  blocks(state, counter, x);
  // r[4k + m], 128-bit lane L: words 4k..4k+3 of block 4L + m.
  __m512i r[16];
  for (int k = 0; k < 4; ++k) {
    const __m512i a = reinterpret_cast<__m512i>(x[4 * k]);
    const __m512i b = reinterpret_cast<__m512i>(x[4 * k + 1]);
    const __m512i c = reinterpret_cast<__m512i>(x[4 * k + 2]);
    const __m512i d = reinterpret_cast<__m512i>(x[4 * k + 3]);
    const __m512i ab_lo = _mm512_unpacklo_epi32(a, b);
    const __m512i ab_hi = _mm512_unpackhi_epi32(a, b);
    const __m512i cd_lo = _mm512_unpacklo_epi32(c, d);
    const __m512i cd_hi = _mm512_unpackhi_epi32(c, d);
    r[4 * k] = _mm512_unpacklo_epi64(ab_lo, cd_lo);
    r[4 * k + 1] = _mm512_unpackhi_epi64(ab_lo, cd_lo);
    r[4 * k + 2] = _mm512_unpacklo_epi64(ab_hi, cd_hi);
    r[4 * k + 3] = _mm512_unpackhi_epi64(ab_hi, cd_hi);
  }
  for (int m = 0; m < 4; ++m) {
    // Transpose the 4x4 grid of 128-bit lanes r[4k + m].lane(L).
    const __m512i p0 = _mm512_shuffle_i32x4(r[m], r[4 + m], 0x44);
    const __m512i p1 = _mm512_shuffle_i32x4(r[m], r[4 + m], 0xee);
    const __m512i p2 = _mm512_shuffle_i32x4(r[8 + m], r[12 + m], 0x44);
    const __m512i p3 = _mm512_shuffle_i32x4(r[8 + m], r[12 + m], 0xee);
    _mm512_storeu_si512(out + 8 * m, _mm512_shuffle_i32x4(p0, p2, 0x88));
    _mm512_storeu_si512(out + 8 * (4 + m), _mm512_shuffle_i32x4(p0, p2, 0xdd));
    _mm512_storeu_si512(out + 8 * (8 + m), _mm512_shuffle_i32x4(p1, p3, 0x88));
    _mm512_storeu_si512(out + 8 * (12 + m), _mm512_shuffle_i32x4(p1, p3, 0xdd));
  }
}
#pragma GCC diagnostic pop
#endif

}  // namespace

ChaChaCore chacha20_core(VectorIsa isa) {
  switch (isa) {
    case VectorIsa::kGeneric:
      return core_generic;
#if defined(__x86_64__)
    case VectorIsa::kAvx2:
      return core_avx2;
    case VectorIsa::kAvx512f:
    case VectorIsa::kAvx512vbmi:
      return core_avx512f;
#endif
    default:
      return nullptr;
  }
}

std::array<std::uint32_t, 16> chacha20_seed_state(std::uint64_t seed) {
  // "expand 32-byte k", then the seed spread across the key with distinct
  // lane constants (a convenience for benches and tests, not a KDF).
  std::array<std::uint32_t, 16> st{0x61707865u, 0x3320646eu, 0x79622d32u,
                                   0x6b206574u};
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t lane = seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
    st[static_cast<std::size_t>(4 + 2 * i)] = static_cast<std::uint32_t>(lane);
    st[static_cast<std::size_t>(5 + 2 * i)] =
        static_cast<std::uint32_t>(lane >> 32);
  }
  return st;
}

void ChaCha20Source::refill() {
  core_(state_, counter_, buf_.data());
  counter_ += 16;
  pos_ = 0;
}

void ChaCha20Source::fill_words(std::span<std::uint64_t> out) {
  std::size_t i = std::min(out.size(), kChaChaCoreWords - pos_);
  std::copy_n(buf_.begin() + static_cast<std::ptrdiff_t>(pos_), i, out.begin());
  pos_ += i;
  for (; out.size() - i >= kChaChaCoreWords; i += kChaChaCoreWords) {
    core_(state_, counter_, out.data() + i);
    counter_ += 16;
  }
  if (i < out.size()) {
    refill();
    pos_ = out.size() - i;
    std::copy_n(buf_.begin(), pos_, out.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

}  // namespace cgs::prng
