#include "prng/keccak.h"

#include <cstring>

#include "common/bits.h"
#include "common/check.h"
#include "prng/isa.h"

namespace cgs::prng {

namespace {

constexpr std::uint64_t kRC[24] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull};

constexpr int kRho[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                          25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};

}  // namespace

void keccak_f1600(std::array<std::uint64_t, 25>& a) {
  for (int round = 0; round < 24; ++round) {
    // Theta
    std::uint64_t c[5], d[5];
    for (int x = 0; x < 5; ++x)
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    for (int x = 0; x < 5; ++x) {
      d[x] = c[(x + 4) % 5] ^ rotl64(c[(x + 1) % 5], 1);
      for (int y = 0; y < 5; ++y) a[x + 5 * y] ^= d[x];
    }
    // Rho + Pi
    std::uint64_t b[25];
    for (int x = 0; x < 5; ++x)
      for (int y = 0; y < 5; ++y)
        b[y + 5 * ((2 * x + 3 * y) % 5)] = rotl64(a[x + 5 * y], kRho[x + 5 * y]);
    // Chi
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 5; ++x)
        a[x + 5 * y] =
            b[x + 5 * y] ^ ((~b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
    // Iota
    a[0] ^= kRC[round];
  }
}

// The four-lane permutation is one body compiled twice, for the baseline
// ISA (the 256-bit vectors lower to SSE pairs) and for AVX2, picked once
// per process by the prng kernels' shared dispatch (prng/isa.h).
//
// The rotate is a macro, not a helper function, on purpose: an
// out-of-line call from the AVX2 body into default-target code would pass
// the vectors through a mismatched register ABI (garbage at -O0, where
// nothing inlines on its own), and even an always_inline function with a
// vector return draws gcc's -Wpsabi ABI note.
#define CGS_ROTL_V(v, r) \
  ((r) == 0 ? (v) : (U64x4)(((v) << (r)) | ((v) >> (64 - (r)))))

namespace {

[[gnu::always_inline]] inline void keccak_x4_body(std::array<U64x4, 25>& a) {
  for (int round = 0; round < 24; ++round) {
    // Theta
    U64x4 c[5], d[5];
    for (int x = 0; x < 5; ++x)
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    for (int x = 0; x < 5; ++x) {
      d[x] = c[(x + 4) % 5] ^ CGS_ROTL_V(c[(x + 1) % 5], 1);
      for (int y = 0; y < 5; ++y) a[x + 5 * y] ^= d[x];
    }
    // Rho + Pi
    U64x4 b[25];
    for (int x = 0; x < 5; ++x)
      for (int y = 0; y < 5; ++y)
        b[y + 5 * ((2 * x + 3 * y) % 5)] =
            CGS_ROTL_V(a[x + 5 * y], kRho[x + 5 * y]);
    // Chi
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 5; ++x)
        a[x + 5 * y] =
            b[x + 5 * y] ^ ((~b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
    // Iota
    a[0] ^= U64x4{kRC[round], kRC[round], kRC[round], kRC[round]};
  }
}

void keccak_x4_generic(std::array<U64x4, 25>& a) { keccak_x4_body(a); }

#if defined(__x86_64__)
__attribute__((target("avx2"))) void keccak_x4_avx2(
    std::array<U64x4, 25>& a) {
  keccak_x4_body(a);
}
#endif

}  // namespace
#undef CGS_ROTL_V

void keccak_f1600_x4(std::array<U64x4, 25>& states) {
#if defined(__x86_64__)
  static void (*const body)(std::array<U64x4, 25>&) =
      host_vector_isa() >= VectorIsa::kAvx2 ? keccak_x4_avx2
                                            : keccak_x4_generic;
  body(states);
#else
  keccak_x4_generic(states);
#endif
}

Shake::Shake(Variant v)
    : rate_(v == Variant::kShake128 ? 168 : 136) {}

void Shake::absorb(std::span<const std::uint8_t> data) {
  CGS_CHECK_MSG(!squeezing_, "absorb after squeeze");
  for (std::uint8_t byte : data) {
    reinterpret_cast<std::uint8_t*>(state_.data())[pos_] ^= byte;
    if (++pos_ == rate_) permute_and_reset_pos();
  }
}

void Shake::absorb(std::string_view s) {
  absorb(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Shake::permute_and_reset_pos() {
  keccak_f1600(state_);
  pos_ = 0;
}

std::array<std::uint64_t, 25> Shake::finalize_state() {
  CGS_CHECK_MSG(!squeezing_, "finalize after squeeze");
  // SHAKE domain separation + pad10*1.
  auto* bytes = reinterpret_cast<std::uint8_t*>(state_.data());
  bytes[pos_] ^= 0x1f;
  bytes[rate_ - 1] ^= 0x80;
  squeezing_ = true;
  pos_ = rate_;  // a later squeeze() permutes first, continuing the stream
  return state_;
}

void Shake::squeeze(std::span<std::uint8_t> out) {
  if (!squeezing_) (void)finalize_state();  // pos_ at rate: permute below
  for (auto& o : out) {
    if (pos_ == rate_) permute_and_reset_pos();
    o = reinterpret_cast<const std::uint8_t*>(state_.data())[pos_++];
  }
}

std::vector<std::uint8_t> Shake::hash(Variant v,
                                      std::span<const std::uint8_t> data,
                                      std::size_t out_len) {
  Shake s(v);
  s.absorb(data);
  std::vector<std::uint8_t> out(out_len);
  s.squeeze(out);
  return out;
}

ShakeSource::ShakeSource(std::uint64_t seed) : shake_(Shake::Variant::kShake128) {
  std::array<std::uint8_t, 8> s{};
  std::memcpy(s.data(), &seed, 8);
  shake_.absorb(s);
}

std::uint64_t ShakeSource::next_word() {
  if (pos_ + 8 > buf_.size()) {
    shake_.squeeze(buf_);
    pos_ = 0;
    ++blocks_;
  }
  std::uint64_t w;
  std::memcpy(&w, buf_.data() + pos_, 8);
  pos_ += 8;
  return w;
}

}  // namespace cgs::prng
