#pragma once
// The byte path of the lane unpack (ct::unpack_batch, m <= 7), in a header
// so the machine-code audit can instantiate the in-register form out of
// line. Planes and signs are laid out as unpack_batch documents: bit i of
// group g of plane k is bit k of lane 64g + i; bit i of sign group g
// negates that lane.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cgs::ct {

/// The signed bytes of an N-byte lane word, for byte-wise arithmetic.
template <std::size_t N>
struct ByteLanes {
  typedef std::int8_t type __attribute__((vector_size(N)));
};

/// The shift-and-mask gather with the per-byte sign fold, for m <= 7: byte
/// c of group g of lanes[j] becomes the signed value of lane 64g + 8c + j.
/// (plane >> j) & kLow drops lane 8c + j's bit into bit 0 of byte c, for
/// all eight c at once; a set sign bit negates the byte. Shifts, masks and
/// byte subtractions only: no multiply, no table.
template <typename Word>
inline void spread_bytes(const Word* plane, int m, const Word& sign,
                         typename ByteLanes<sizeof(Word)>::type* lanes) {
  using Bytes = typename ByteLanes<sizeof(Word)>::type;
  constexpr std::uint64_t kLow = 0x0101010101010101ull;
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) {
    Word acc{};
#pragma GCC unroll 7
    for (int k = 0; k < m; ++k) acc |= ((plane[k] >> j) & kLow) << k;
    const Bytes neg = -(Bytes)((sign >> j) & kLow);
    lanes[j] = ((Bytes)acc ^ neg) - neg;
  }
}

#if defined(__x86_64__)

namespace lane_unpack_detail {

/// vpermt2q indices of one step of the 8x8 qword transpose: the pair
/// (x, y) = (row i, row i + h) swaps x's columns p with p & h set against
/// y's columns p - h (8 + q selects y's qword q).
constexpr std::array<std::int64_t, 8> swap_index(int h, bool high) {
  std::array<std::int64_t, 8> idx{};
  for (int p = 0; p < 8; ++p)
    idx[static_cast<std::size_t>(p)] =
        (p & h) ? (high ? 8 + p : 8 + p - h) : (high ? p + h : p);
  return idx;
}

/// vpermb indices: byte 8c + j takes byte 8j + c (an 8x8 byte transpose).
constexpr std::array<std::int8_t, 64> byte_transpose_index() {
  std::array<std::int8_t, 64> idx{};
  for (int b = 0; b < 64; ++b)
    idx[static_cast<std::size_t>(b)] =
        static_cast<std::int8_t>(8 * (b % 8) + b / 8);
  return idx;
}

inline constexpr std::array<std::int64_t, 8> kSwapLo[3] = {
    swap_index(4, false), swap_index(2, false), swap_index(1, false)};
inline constexpr std::array<std::int64_t, 8> kSwapHi[3] = {
    swap_index(4, true), swap_index(2, true), swap_index(1, true)};
inline constexpr std::array<std::int8_t, 64> kByteTranspose =
    byte_transpose_index();

}  // namespace lane_unpack_detail

// GCC 12's avx512fintrin.h self-initializes the "undefined" pass-through
// operand of unmasked intrinsics, which -Wuninitialized and
// -Wmaybe-uninitialized then report at every inlined use (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// The 512-lane byte path in registers (AVX-512BW and VBMI): the gather
/// and sign fold on 512-bit words, an 8x8 transpose of their qwords, one
/// vpermb per vector into lane order, and vpmovsxbd stores. Writes out[0,
/// 512). M is a compile-time constant, so the body is straight-line: no
/// branch, no call, no index register. Always inlined, so every caller
/// (each compiled with the same target attribute) holds the audited body
/// rather than a call. Callers check prng::host_vector_isa() >=
/// VectorIsa::kAvx512vbmi.
template <int M>
[[gnu::target("avx512f,avx512bw,avx512vbmi"), gnu::always_inline]] inline void
unpack_in_register(const std::uint64_t* planes, const std::uint64_t* signs,
                   std::int32_t* out) {
  static_assert(M >= 1 && M <= 7, "the byte path holds m <= 7 bits");
  namespace d = lane_unpack_detail;
  using Word = std::uint64_t __attribute__((vector_size(64)));
  Word plane[M], sign;
  std::memcpy(plane, planes, sizeof plane);
  std::memcpy(&sign, signs, sizeof sign);
  ByteLanes<64>::type lanes[8];
  spread_bytes<Word>(plane, M, sign, lanes);
  // Qword g of lanes[j] holds lanes 64g + 8c + j (byte c). Transposed,
  // t[g] holds them at qword j: group g's 64 lanes in one vector.
  __m512i t[8];
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) t[j] = (__m512i)lanes[j];
#pragma GCC unroll 3
  for (int s = 0; s < 3; ++s) {
    const int h = 4 >> s;
    const __m512i lo = _mm512_loadu_si512(d::kSwapLo[s].data());
    const __m512i hi = _mm512_loadu_si512(d::kSwapHi[s].data());
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      if (i & h) continue;
      const __m512i x = t[i], y = t[i + h];
      t[i] = _mm512_permutex2var_epi64(x, lo, y);
      t[i + h] = _mm512_permutex2var_epi64(x, hi, y);
    }
  }
  // Byte 8j + c of t[g] is lane 64g + 8c + j: one vpermb puts it at 8c + j.
  const __m512i order = _mm512_loadu_si512(d::kByteTranspose.data());
#pragma GCC unroll 8
  for (int g = 0; g < 8; ++g) {
    const __m512i v = _mm512_permutexvar_epi8(order, t[g]);
    _mm512_storeu_si512(out + 64 * g,
                        _mm512_cvtepi8_epi32(_mm512_castsi512_si128(v)));
    _mm512_storeu_si512(out + 64 * g + 16,
                        _mm512_cvtepi8_epi32(_mm512_extracti32x4_epi32(v, 1)));
    _mm512_storeu_si512(out + 64 * g + 32,
                        _mm512_cvtepi8_epi32(_mm512_extracti32x4_epi32(v, 2)));
    _mm512_storeu_si512(out + 64 * g + 48,
                        _mm512_cvtepi8_epi32(_mm512_extracti32x4_epi32(v, 3)));
  }
}
#pragma GCC diagnostic pop

#endif  // __x86_64__

}  // namespace cgs::ct
