// PRNG correctness: ChaCha20 against the RFC 8439 vector (every keystream
// core against a scalar reference block), SHAKE against the NIST
// empty-message digests, plus stream/bit-buffer semantics.

#include <gtest/gtest.h>

#include <cstring>

#include "prng/chacha20.h"
#include "prng/isa.h"
#include "prng/keccak.h"
#include "prng/splitmix.h"

namespace cgs::prng {
namespace {

std::string hex(std::span<const std::uint8_t> b) {
  static const char* d = "0123456789abcdef";
  std::string s;
  for (std::uint8_t x : b) {
    s += d[x >> 4];
    s += d[x & 15];
  }
  return s;
}

std::uint32_t rotl(std::uint32_t v, int r) { return (v << r) | (v >> (32 - r)); }

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

// The RFC 8439 block function, one block at a time, as the 64 keystream
// bytes of the input words `st` (counter and nonce already in place): the
// reference every vector core is checked against.
std::array<std::uint8_t, 64> reference_block(
    const std::array<std::uint32_t, 16>& st) {
  std::array<std::uint32_t, 16> x = st;
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
  std::array<std::uint8_t, 64> out;
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t b = 0; b < 4; ++b)
      out[4 * i + b] = static_cast<std::uint8_t>((x[i] + st[i]) >> (8 * b));
  return out;
}

// `st` with the 64-bit block counter in words 12 (low) and 13 (high).
std::array<std::uint32_t, 16> at_block(std::array<std::uint32_t, 16> st,
                                       std::uint64_t block) {
  st[12] = static_cast<std::uint32_t>(block);
  st[13] = static_cast<std::uint32_t>(block >> 32);
  return st;
}

// The stream bytes of `words`, as a source emits them (the word buffer's
// memory image).
std::vector<std::uint8_t> stream_bytes(std::span<const std::uint64_t> words) {
  std::vector<std::uint8_t> out(8 * words.size());
  std::memcpy(out.data(), words.data(), out.size());
  return out;
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000, counter 1.
  std::array<std::uint32_t, 16> st = {0x61707865u, 0x3320646eu, 0x79622d32u,
                                      0x6b206574u};
  for (std::size_t i = 0; i < 8; ++i) {
    const auto b = static_cast<std::uint32_t>(4 * i);
    st[4 + i] = b | (b + 1) << 8 | (b + 2) << 16 | (b + 3) << 24;
  }
  st[12] = 1;
  st[13] = 0x09000000u;
  st[14] = 0x4a000000u;
  st[15] = 0;
  EXPECT_EQ(hex(reference_block(st)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// Every keystream core the host can run must match the reference block
// by block (lane by lane), across the 2^32 carry of the block counter:
// at 2^32 - 8 the carry falls between the 8-block halves, at 2^32 - 4
// inside each vector.
class ChaChaCores : public ::testing::TestWithParam<VectorIsa> {};

TEST_P(ChaChaCores, MatchReferenceLaneByLane) {
  const ChaChaCore core = chacha20_core(GetParam());
  if (core == nullptr || GetParam() > host_vector_isa())
    GTEST_SKIP() << "core not runnable on this host";
  std::array<std::uint32_t, 16> st = chacha20_seed_state(7);
  st[14] = 0x01234567u;  // nonzero nonce words must reach every lane
  st[15] = 0x89abcdefu;
  for (std::uint64_t counter :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 32) - 8,
        (std::uint64_t{1} << 32) - 4}) {
    std::array<std::uint64_t, kChaChaCoreWords> words{};
    core(st, counter, words.data());
    const std::vector<std::uint8_t> got = stream_bytes(words);
    for (std::size_t j = 0; j < 16; ++j) {
      const auto want = reference_block(at_block(st, counter + j));
      EXPECT_EQ(0, std::memcmp(got.data() + 64 * j, want.data(), 64))
          << "counter " << counter << " block " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, ChaChaCores,
    ::testing::Values(VectorIsa::kGeneric, VectorIsa::kAvx2,
                      VectorIsa::kAvx512f),
    [](const ::testing::TestParamInfo<VectorIsa>& info) {
      switch (info.param) {
        case VectorIsa::kGeneric: return std::string("generic");
        case VectorIsa::kAvx2: return std::string("avx2");
        case VectorIsa::kAvx512f: return std::string("avx512f");
      }
      return std::string("unknown");
    });

TEST(ChaCha20, CounterCarriesPastTwoToThe32Blocks) {
  // A 32-bit counter would wrap to block 0 here and replay the stream.
  constexpr std::uint64_t kWrap = std::uint64_t{1} << 32;
  ChaCha20Source late(5, kWrap - 8), fresh(5);
  std::vector<std::uint64_t> across(128), head(64);
  late.fill_words(across);
  fresh.fill_words(head);
  const std::vector<std::uint8_t> got = stream_bytes(across);
  const std::vector<std::uint8_t> first = stream_bytes(head);
  const std::array<std::uint32_t, 16> st = chacha20_seed_state(5);
  for (std::size_t j = 0; j < 16; ++j) {
    const std::uint8_t* block = got.data() + 64 * j;
    const auto want = reference_block(at_block(st, kWrap - 8 + j));
    EXPECT_EQ(0, std::memcmp(block, want.data(), 64)) << "block " << j;
    if (j >= 8)
      EXPECT_NE(0, std::memcmp(block, first.data() + 64 * (j - 8), 64))
          << "block 2^32 + " << (j - 8) << " replays block " << (j - 8);
  }
  // Block 2^32 is word 12 = 0, word 13 = 1.
  std::array<std::uint32_t, 16> carried = st;
  carried[12] = 0;
  carried[13] = 1;
  const auto want = reference_block(carried);
  EXPECT_EQ(0, std::memcmp(got.data() + 64 * 8, want.data(), 64));
}

TEST(Keccak, FourLanePermutationMatchesScalar) {
  std::array<std::array<std::uint64_t, 25>, 4> scalar;
  std::array<U64x4, 25> lanes;
  SplitMix64Source fill(11);
  for (std::size_t i = 0; i < 25; ++i)
    for (int l = 0; l < 4; ++l) {
      scalar[static_cast<std::size_t>(l)][i] = fill.next_word();
      lanes[i][l] = scalar[static_cast<std::size_t>(l)][i];
    }
  for (int rep = 0; rep < 2; ++rep) {
    keccak_f1600_x4(lanes);
    for (auto& s : scalar) keccak_f1600(s);
  }
  for (std::size_t i = 0; i < 25; ++i)
    for (int l = 0; l < 4; ++l)
      EXPECT_EQ(lanes[i][l], scalar[static_cast<std::size_t>(l)][i]);
}

TEST(Shake, Shake128EmptyMessage) {
  std::vector<std::uint8_t> out =
      Shake::hash(Shake::Variant::kShake128, {}, 32);
  EXPECT_EQ(hex(out),
            "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26");
}

TEST(Shake, Shake256EmptyMessage) {
  std::vector<std::uint8_t> out =
      Shake::hash(Shake::Variant::kShake256, {}, 32);
  EXPECT_EQ(hex(out),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f");
}

TEST(Shake, IncrementalAbsorbMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Shake a(Shake::Variant::kShake256);
  a.absorb(msg);
  std::vector<std::uint8_t> out1(64);
  a.squeeze(out1);

  Shake b(Shake::Variant::kShake256);
  b.absorb(msg.substr(0, 10));
  b.absorb(msg.substr(10));
  std::vector<std::uint8_t> out2(64);
  b.squeeze(out2);
  EXPECT_EQ(out1, out2);
}

TEST(Shake, SqueezeInPiecesMatches) {
  Shake a(Shake::Variant::kShake128);
  a.absorb("seed");
  std::vector<std::uint8_t> big(300);
  a.squeeze(big);

  Shake b(Shake::Variant::kShake128);
  b.absorb("seed");
  std::vector<std::uint8_t> parts(300);
  for (std::size_t off = 0; off < 300; off += 37) {
    const std::size_t len = std::min<std::size_t>(37, 300 - off);
    b.squeeze(std::span<std::uint8_t>(parts.data() + off, len));
  }
  EXPECT_EQ(big, parts);
}

TEST(Sources, DeterministicPerSeed) {
  ChaCha20Source a(7), b(7), c(8);
  ShakeSource d(7), e(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_word(), b.next_word());
    EXPECT_EQ(d.next_word(), e.next_word());
  }
  bool differs = false;
  ChaCha20Source a2(7);
  for (int i = 0; i < 10; ++i) differs |= a2.next_word() != c.next_word();
  EXPECT_TRUE(differs);
}

TEST(Sources, BitBufferIsLsbFirst) {
  DeterministicBitSource src({1, 0, 1, 1, 0, 0, 0, 1});
  // next_word packs bits LSB-first; next_bit consumes in the same order.
  EXPECT_EQ(src.next_bit(), 1);
  EXPECT_EQ(src.next_bit(), 0);
  EXPECT_EQ(src.next_bit(), 1);
  EXPECT_EQ(src.next_bit(), 1);
  EXPECT_EQ(src.next_bit(), 0);
}

TEST(Sources, SplitMixUniformish) {
  SplitMix64Source s(1);
  int ones = 0;
  for (int i = 0; i < 1000; ++i) ones += __builtin_popcountll(s.next_word());
  // 64000 bits, expect ~32000 ones within 5 sigma (~630).
  EXPECT_NEAR(ones, 32000, 700);
}

TEST(Sources, ChaChaKeystreamBalance) {
  ChaCha20Source s(99);
  int ones = 0;
  for (int i = 0; i < 1000; ++i) ones += __builtin_popcountll(s.next_word());
  EXPECT_NEAR(ones, 32000, 700);
}

}  // namespace
}  // namespace cgs::prng
