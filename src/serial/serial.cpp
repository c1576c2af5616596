#include "serial/serial.h"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace cgs::serial {

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

// Words are hashed as little-endian values so the frame checksum is the
// same on every host — a store written on LE must validate on BE.
inline std::uint64_t word_le(std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    return w;
  } else {
    return ((w & 0x00000000000000ffull) << 56) |
           ((w & 0x000000000000ff00ull) << 40) |
           ((w & 0x0000000000ff0000ull) << 24) |
           ((w & 0x00000000ff000000ull) << 8) |
           ((w & 0x000000ff00000000ull) >> 8) |
           ((w & 0x0000ff0000000000ull) >> 24) |
           ((w & 0x00ff000000000000ull) >> 40) |
           ((w & 0xff00000000000000ull) >> 56);
  }
}

}  // namespace

std::uint64_t hash64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ word_le(w)) * kPrime;
    p += 8;
    n -= 8;
  }
  if (n != 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = (h ^ word_le(tail)) * kPrime;
  }
  // Mix the length so a zero tail and zero padding cannot alias.
  return (h ^ bytes.size()) * kPrime;
}

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::bytes(std::span<const std::uint8_t> v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::str(const std::string& v) {
  u64(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::u32s(std::span<const std::uint32_t> v) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(std::uint32_t));
  } else {
    for (std::uint32_t x : v) u32(x);
  }
}

void Writer::f64_bits(std::span<const double> v) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(double));
  } else {
    for (double x : v) u64(std::bit_cast<std::uint64_t>(x));
  }
}

std::uint8_t Reader::u8() {
  if (pos_ >= data_.size()) throw SerialError("serial: read past end of data");
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  const std::uint16_t lo = u8();
  return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
}

std::uint32_t Reader::u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
  return v;
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw SerialError("serial: malformed boolean");
  return v != 0;
}

std::span<const std::uint8_t> Reader::bytes(std::size_t n) {
  if (n > remaining()) throw SerialError("serial: read past end of data");
  auto s = data_.subspan(pos_, n);
  pos_ += n;
  return s;
}

std::string Reader::str() {
  const std::uint64_t n = u64();
  if (n > remaining()) throw SerialError("serial: string length exceeds data");
  auto s = bytes(static_cast<std::size_t>(n));
  return std::string(s.begin(), s.end());
}

std::vector<std::uint32_t> Reader::u32s(std::size_t count) {
  if (count > remaining() / sizeof(std::uint32_t))
    throw SerialError("serial: u32 array length exceeds data");
  const auto raw = bytes(count * sizeof(std::uint32_t));
  std::vector<std::uint32_t> v(count);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(v.data(), raw.data(), raw.size());
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t x = 0;
      for (int b = 0; b < 4; ++b)
        x |= static_cast<std::uint32_t>(raw[4 * i + b]) << (8 * b);
      v[i] = x;
    }
  }
  return v;
}

std::vector<double> Reader::f64_bits(std::size_t count) {
  if (count > remaining() / sizeof(double))
    throw SerialError("serial: f64 array length exceeds data");
  const auto raw = bytes(count * sizeof(double));
  std::vector<double> v(count);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(v.data(), raw.data(), raw.size());
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t x = 0;
      for (int b = 0; b < 8; ++b)
        x |= static_cast<std::uint64_t>(raw[8 * i + b]) << (8 * b);
      v[i] = std::bit_cast<double>(x);
    }
  }
  return v;
}

void Reader::finish() const {
  if (pos_ != data_.size())
    throw SerialError("serial: trailing bytes after payload");
}

std::vector<std::uint8_t> wrap(TypeTag tag, std::vector<std::uint8_t> payload) {
  Writer w;
  w.u32(kMagic);
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(tag));
  w.u64(payload.size());
  w.u64(hash64(payload));
  w.bytes(payload);
  return w.take();
}

TypeTag peek_tag(std::span<const std::uint8_t> frame) {
  Reader r(frame);
  if (r.remaining() < kFrameHeaderBytes)
    throw SerialError("serial: frame truncated (header)");
  if (r.u32() != kMagic) throw SerialError("serial: bad magic");
  if (r.u32() != kFormatVersion)
    throw SerialError("serial: format version mismatch");
  const std::uint32_t tag = r.u32();
  if (tag < static_cast<std::uint32_t>(TypeTag::kNetlist) ||
      tag > static_cast<std::uint32_t>(TypeTag::kKernelDigest)) {
    std::ostringstream os;
    os << "serial: unknown type tag " << tag;
    throw SerialError(os.str());
  }
  return static_cast<TypeTag>(tag);
}

std::span<const std::uint8_t> unwrap(std::span<const std::uint8_t> frame,
                                     TypeTag expected_tag) {
  Reader r(frame);
  if (r.remaining() < kFrameHeaderBytes)
    throw SerialError("serial: frame truncated (header)");
  if (r.u32() != kMagic) throw SerialError("serial: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    std::ostringstream os;
    os << "serial: format version mismatch (file " << version << ", library "
       << kFormatVersion << ")";
    throw SerialError(os.str());
  }
  const std::uint32_t tag = r.u32();
  if (tag != static_cast<std::uint32_t>(expected_tag)) {
    std::ostringstream os;
    os << "serial: type tag mismatch (file " << tag << ", expected "
       << static_cast<std::uint32_t>(expected_tag) << ")";
    throw SerialError(os.str());
  }
  const std::uint64_t size = r.u64();
  const std::uint64_t checksum = r.u64();
  if (size != r.remaining())
    throw SerialError("serial: payload size mismatch (truncated or padded)");
  auto payload = r.bytes(static_cast<std::size_t>(size));
  if (hash64(payload) != checksum)
    throw SerialError("serial: checksum mismatch (corrupted payload)");
  return payload;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[65536];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    data.insert(data.end(), chunk, chunk + got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return data;
}

bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  // Unique temp name per process AND per call: two processes — or two
  // threads in one process — filling the same cache entry must not scribble
  // over each other's half-written temp file.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1)) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const bool wrote =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace cgs::serial
