#pragma once
// Byte-stream serialization core: a little-endian Writer/Reader pair plus a
// versioned, checksummed container frame. Every persisted artifact (netlist,
// synthesized sampler, probability matrix) is one frame:
//
//   magic "CGSB" | format version | type tag | payload size | word-wise
//   FNV-1a-64 of payload (hash64) | payload bytes
//
// so a loader can reject foreign files (bad magic), files from a future
// format (version mismatch), and bit rot (checksum mismatch) before parsing
// a single payload byte. Type-specific encoders live in serial/formats.h;
// this header is deliberately type-agnostic so future artifacts join by
// writing against Reader/Writer alone.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace cgs::serial {

/// Thrown on any malformed, truncated, corrupted or foreign input. Loaders
/// (e.g. the sampler registry's disk cache) catch this and fall back to
/// recomputing the artifact.
class SerialError : public Error {
 public:
  explicit SerialError(const std::string& what) : Error(what) {}
};

/// First four file bytes: 'C' 'G' 'S' 'B' (CGS Binary).
inline constexpr std::uint32_t kMagic = 0x42534743u;

/// Bumped on any incompatible payload-encoding change. v2: frame checksum
/// switched from byte-wise FNV-1a to the word-wise hash64 (stale cache
/// frames are rejected as a version mismatch and simply recomputed).
inline constexpr std::uint32_t kFormatVersion = 2;

/// Bytes before a frame's payload: magic u32 | version u32 | tag u32 |
/// payload size u64 | hash64 u64.
inline constexpr std::size_t kFrameHeaderBytes = 28;

/// Frame type tags (one per serializable artifact).
enum class TypeTag : std::uint32_t {
  kNetlist = 1,
  kSynthesizedSampler = 2,
  kProbMatrix = 3,
  kRecipe = 4,
  // Serving-layer wire messages (serve/wire.h): these travel over sockets
  // rather than the disk cache, but share the frame so the receive path
  // gets magic/version/checksum validation for free.
  kSignRequest = 5,
  kSignResponse = 6,
  kVerifyRequest = 7,
  kVerifyResponse = 8,
  kKeygenRequest = 9,
  kKeygenResponse = 10,
  // Observability scrape (serve/wire.h): a client asks for the server's
  // metrics exposition in one of the supported formats.
  kStatsRequest = 11,
  kStatsResponse = 12,
  // Transport-level overload shed (net/overload.h): the server answers a
  // request it cannot take on — connection cap, owed-responses cap, write
  // cap, idle or read-progress eviction — with this frame (retry-after
  // hint + reason) instead of a silent close.
  kOverloaded = 13,
  // Key-state store artifacts (store/ + falcon/state_codec.h): per-key
  // offline state persisted so an evicted tenant warm-starts from one
  // decode instead of a recompute. Disk-only, never on the wire.
  kFalconTree = 14,
  kNttKey = 15,
  // One record of a store::KvStore append log (key + value/tombstone);
  // the log is a sequence of these frames, so torn tails and bit rot are
  // detected by the same header/checksum validation as every other frame.
  kKvRecord = 16,
  // Health surface (serve/wire.h): per-subsystem readiness — queue
  // saturation, reactor loop lag, kvstore garbage ratio — answered inline
  // by the router without touching the dispatch queues, so health stays
  // answerable while the serving path is saturated.
  kHealthRequest = 17,
  kHealthResponse = 18,
  // Sidecar of a cached host-compiled kernel (ct/kernel_cache.h): the
  // size and hash64 of the shared object it sits next to. Disk-only.
  kKernelDigest = 19,
};

/// The tag of a frame without validating its payload: header-only checks
/// (magic, version, known tag). Servers multiplexing several request types
/// on one stream peek here, then hand the frame to the matching decoder,
/// which re-validates everything including the checksum via unwrap.
TypeTag peek_tag(std::span<const std::uint8_t> frame);

/// FNV-1a 64-bit over a byte range. Byte-at-a-time and therefore
/// latency-bound (~3 cycles/byte) — kept for small-input identity hashing
/// (key fingerprints, cache-key hashes), NOT for frame checksums.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// The frame content hash: the FNV-1a recurrence applied to 8-byte
/// little-endian words (zero-padded tail, length mixed in last), ~6-8x the
/// throughput of fnv1a64. Warm starts decode at memory speed instead of
/// checksum speed — this is what keeps a KvStore replay over a ~100 MB log
/// and a per-miss frame validation off the serving path's critical cost.
std::uint64_t hash64(std::span<const std::uint8_t> bytes);

/// Append-only little-endian byte sink.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> v);
  /// Length-prefixed (u64) string.
  void str(const std::string& v);
  /// Bulk little-endian arrays — one memcpy on little-endian hosts instead
  /// of 4 (resp. 8) per-byte appends per element. The codec hot path: a
  /// warm-start frame is mostly one u32 or double-bit array.
  void u32s(std::span<const std::uint32_t> v);
  void f64_bits(std::span<const double> v);  // IEEE-754 bit patterns

  /// Pre-size the buffer when the caller knows the frame size up front.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian byte source; throws SerialError on overrun.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  bool boolean();
  std::span<const std::uint8_t> bytes(std::size_t n);
  std::string str();
  /// Bulk counterparts of Writer::u32s / f64_bits: bounds-checked once,
  /// then one memcpy on little-endian hosts.
  std::vector<std::uint32_t> u32s(std::size_t count);
  std::vector<double> f64_bits(std::size_t count);

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Asserts the payload was consumed exactly — trailing garbage is corruption.
  void finish() const;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Wrap a payload in the versioned checksummed frame.
std::vector<std::uint8_t> wrap(TypeTag tag, std::vector<std::uint8_t> payload);

/// Validate a frame (magic, version, tag, size, checksum) and return the
/// payload bytes. Throws SerialError naming the first failed check.
std::span<const std::uint8_t> unwrap(std::span<const std::uint8_t> frame,
                                     TypeTag expected_tag);

/// Read a whole file; nullopt if it does not exist or cannot be opened.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

/// Write via a temp file + rename so concurrent readers never observe a
/// half-written frame. Returns false on any I/O failure (cache writes are
/// best-effort; the caller still holds the in-memory artifact).
bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

}  // namespace cgs::serial
