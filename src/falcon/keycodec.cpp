#include "falcon/keycodec.h"

#include <bit>
#include <cstdlib>

#include "common/check.h"
#include "falcon/codec.h"

namespace cgs::falcon {

namespace {

int log2_of(std::size_t n) {
  CGS_CHECK(n >= 2 && (n & (n - 1)) == 0);
  return std::countr_zero(n);
}

bool header_matches(std::uint8_t byte, std::uint8_t tag, std::size_t* n_out) {
  if ((byte & 0xf0) != tag) return false;
  const int logn = byte & 0x0f;
  if (logn < 1 || logn > 11) return false;
  *n_out = std::size_t(1) << logn;
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_public_key(const KeyPair& kp) {
  BitWriter w;
  w.put_bits(static_cast<std::uint32_t>(log2_of(kp.params.n)), 8);
  for (std::uint32_t c : kp.h) {
    CGS_CHECK(c < kQ);
    w.put_bits(c, 14);
  }
  return w.bytes();
}

std::optional<DecodedPublicKey> decode_public_key(
    const std::vector<std::uint8_t>& bytes) {
  BitReader r(bytes);
  const auto hdr = r.get_bits(8);
  std::size_t n = 0;
  if (!hdr || !header_matches(static_cast<std::uint8_t>(*hdr), 0x00, &n))
    return std::nullopt;
  DecodedPublicKey out;
  out.params = FalconParams::for_degree(n);
  out.h.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = r.get_bits(14);
    if (!v || *v >= kQ) return std::nullopt;
    out.h.push_back(*v);
  }
  return out;
}

std::vector<std::uint8_t> encode_secret_key(const KeyPair& kp) {
  // Width: enough for the largest |coefficient| over f,g,F,G plus sign.
  std::uint32_t max_mag = 1;
  for (const IPoly* p : {&kp.f, &kp.g, &kp.f_cap, &kp.g_cap})
    for (std::int32_t c : *p)
      max_mag = std::max(max_mag, static_cast<std::uint32_t>(std::abs(c)));
  const int width = std::bit_width(max_mag) + 1;  // sign bit
  CGS_CHECK(width <= 24);

  BitWriter w;
  w.put_bits(0x50u | static_cast<std::uint32_t>(log2_of(kp.params.n)), 8);
  w.put_bits(static_cast<std::uint32_t>(width), 8);
  for (const IPoly* p : {&kp.f, &kp.g, &kp.f_cap, &kp.g_cap}) {
    for (std::int32_t c : *p) {
      w.put(c < 0 ? 1 : 0);
      w.put_bits(static_cast<std::uint32_t>(std::abs(c)), width - 1);
    }
  }
  return w.bytes();
}

std::optional<DecodedSecretKey> decode_secret_key(
    const std::vector<std::uint8_t>& bytes) {
  BitReader r(bytes);
  const auto hdr = r.get_bits(8);
  std::size_t n = 0;
  if (!hdr || !header_matches(static_cast<std::uint8_t>(*hdr), 0x50, &n))
    return std::nullopt;
  const auto width = r.get_bits(8);
  if (!width || *width < 2 || *width > 24) return std::nullopt;

  DecodedSecretKey out;
  out.params = FalconParams::for_degree(n);
  for (IPoly* p : {&out.f, &out.g, &out.f_cap, &out.g_cap}) {
    p->resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int sign = r.get();
      const auto mag = r.get_bits(static_cast<int>(*width) - 1);
      if (sign < 0 || !mag) return std::nullopt;
      const auto v = static_cast<std::int32_t>(*mag);
      (*p)[i] = sign ? -v : v;
    }
  }
  return out;
}

std::vector<std::uint8_t> encode_signature(const Signature& sig,
                                           std::size_t n) {
  const auto s1 = compress_s1(sig.s1);
  std::vector<std::uint8_t> out;
  out.reserve(1 + sig.nonce.size() + s1.size());
  out.push_back(static_cast<std::uint8_t>(0x30u | log2_of(n)));
  out.insert(out.end(), sig.nonce.begin(), sig.nonce.end());
  out.insert(out.end(), s1.begin(), s1.end());
  return out;
}

std::optional<Signature> decode_signature(
    const std::vector<std::uint8_t>& bytes, std::size_t expected_n) {
  if (bytes.size() < 1 + 40) return std::nullopt;
  std::size_t n = 0;
  if (!header_matches(bytes[0], 0x30, &n) || n != expected_n)
    return std::nullopt;
  Signature sig;
  std::copy(bytes.begin() + 1, bytes.begin() + 41, sig.nonce.begin());
  const std::vector<std::uint8_t> body(bytes.begin() + 41, bytes.end());
  auto s1 = decompress_s1(body, n);
  if (!s1) return std::nullopt;
  sig.s1 = std::move(*s1);
  return sig;
}

}  // namespace cgs::falcon
