#pragma once
// Wire protocol for the signing server: length-prefixed serial frames over
// a byte stream. Each message is
//
//   u32 LE total frame length | serial frame (magic CGSB | version | tag |
//   payload size | hash64 checksum | payload)
//
// so a stream reader knows exactly how many bytes to pull before handing
// the blob to serial::unwrap, which then rejects foreign, version-skewed
// or corrupted messages before a single payload byte is parsed.
//
// Each frame's payload layout is written once, as its `fields()` in
// wire.cpp: one field list that the encoder runs over serial::Writer and
// the decoder runs over serial::Reader. Every response leads with
// `request_id u64 | ok bool`, followed by the error string when !ok and
// by the frame's own fields otherwise. Checks (degree range, lengths
// against the remaining payload, known enum values, h < q) run on decode
// only; the encoder writes what the frame holds.
//
// Request context (wire revisions 1 and 2 of this protocol, serial format
// version unchanged): kSignRequest, kVerifyRequest and kKeygenRequest may
// carry an OPTIONAL trailing block after their other fields —
//
//   ctx_version 1:  u8 (= 1) | trace_id u64
//   ctx_version 2:  u8 (= 2) | trace_id u64 | deadline_us u64
//
// A request without the block decodes exactly as before, so peers that
// never send context interoperate unchanged; encoders emit the OLDEST
// version that carries the fields actually set (no deadline -> v1, no
// trace either -> no block), so a frame is byte-identical to what an
// older peer would have produced whenever the newer fields are absent. A
// receiver that sees an unknown ctx_version rejects the frame. The block
// sits inside the checksummed payload, so a corrupted trace id or
// deadline is caught like any other field. `deadline_us` is the
// requester's RELATIVE latency budget (microseconds from server receipt,
// not a wall-clock timestamp — no clock sync assumed); work still queued
// when it lapses is answered with a typed expired shed, never run late
// and never dropped silently.
//
// A kVerifyResponse's `ok` says the request was processed ("this is a
// verdict"); `accepted` is the verdict itself — a rejected signature is a
// successful verification that answered no.
//
// Signatures travel compressed (falcon/codec.h Golomb-Rice coding), the
// same encoding a Falcon signature ships with anywhere else.

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "falcon/sign.h"
#include "net/framing.h"
#include "serial/serial.h"

namespace cgs::serve {

/// Hard cap on a single wire message (length prefix included). Requests
/// are small; this bounds what a malformed or hostile length prefix can
/// make the reader allocate. (The transport framing itself lives in
/// net/framing.h; this is its cap.)
inline constexpr std::uint32_t kMaxWireMessage = net::kMaxFrameBytes;

struct SignResponseFrame;
struct VerifyResponseFrame;
struct KeygenResponseFrame;
struct StatsResponseFrame;
struct HealthResponseFrame;

/// The fields every response type leads with, and the failure each one
/// answers an error with.
template <typename R>
struct ResponseHead {
  std::uint64_t request_id = 0;
  bool ok = false;
  std::string error;  // set when !ok

  static R failure(std::uint64_t request_id, std::string error) {
    R resp;
    resp.request_id = request_id;
    resp.error = std::move(error);
    return resp;
  }
};

struct SignRequestFrame {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kSignRequest;
  using Response = SignResponseFrame;

  std::uint64_t request_id = 0;
  std::uint64_t key_id = 0;  // falcon::key_fingerprint of a registered key
  std::string message;
  /// Optional trace context: non-zero = propagate this id server-side
  /// (forces the server to sample the request's trace). 0 = absent, and
  /// the frame encodes byte-identically to the pre-trace wire format.
  std::uint64_t trace_id = 0;
  /// Optional latency budget in microseconds (see header note). 0 = none.
  std::uint64_t deadline_us = 0;
};

struct SignResponseFrame : ResponseHead<SignResponseFrame> {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kSignResponse;

  std::uint64_t degree = 0;
  std::array<std::uint8_t, 40> nonce{};
  std::vector<std::uint8_t> s1_compressed;

  static SignResponseFrame success(std::uint64_t request_id,
                                   const falcon::Signature& sig);

  /// Decompress back into a Signature; throws serial::SerialError when the
  /// response is an error frame or the compressed s1 is malformed.
  falcon::Signature to_signature() const;
};

struct VerifyRequestFrame {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kVerifyRequest;
  using Response = VerifyResponseFrame;

  std::uint64_t request_id = 0;
  std::uint64_t key_id = 0;  // the key the signature claims to be under
  std::string message;
  std::uint64_t degree = 0;
  std::array<std::uint8_t, 40> nonce{};
  std::vector<std::uint8_t> s1_compressed;
  std::uint64_t trace_id = 0;  // optional trace context (see header note)
  std::uint64_t deadline_us = 0;  // optional latency budget (header note)

  static VerifyRequestFrame make(std::uint64_t request_id,
                                 std::uint64_t key_id, std::string message,
                                 const falcon::Signature& sig);

  /// Decompress back into a Signature; throws serial::SerialError when the
  /// compressed s1 is malformed.
  falcon::Signature to_signature() const;
};

struct VerifyResponseFrame : ResponseHead<VerifyResponseFrame> {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kVerifyResponse;

  bool accepted = false;  // the verdict: signature verifies under the key

  static VerifyResponseFrame verdict(std::uint64_t request_id, bool accepted);
};

struct KeygenRequestFrame {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kKeygenRequest;
  using Response = KeygenResponseFrame;

  std::uint64_t request_id = 0;
  std::uint64_t degree = 0;
  std::uint64_t seed = 0;  // keygen entropy: deterministic per seed
  std::uint64_t trace_id = 0;  // optional trace context (see header note)
  std::uint64_t deadline_us = 0;  // optional latency budget (header note)
};

struct KeygenResponseFrame : ResponseHead<KeygenResponseFrame> {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kKeygenResponse;

  std::uint64_t key_id = 0;  // registered fingerprint, valid in sign/verify
  std::uint64_t degree = 0;
  std::vector<std::uint32_t> h;  // public key, coefficient domain [0, q)

  static KeygenResponseFrame success(std::uint64_t request_id,
                                     std::uint64_t key_id,
                                     const std::vector<std::uint32_t>& h,
                                     std::size_t degree);
};

/// Exposition format selector carried by the stats frames.
enum class StatsFormat : std::uint8_t { kPrometheus = 0, kJson = 1 };

/// Ask the server for its metrics exposition — the wire face of
/// obs::prometheus_text / obs::json_text over the server's registry.
struct StatsRequestFrame {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kStatsRequest;
  using Response = StatsResponseFrame;

  std::uint64_t request_id = 0;
  StatsFormat format = StatsFormat::kPrometheus;
};

struct StatsResponseFrame : ResponseHead<StatsResponseFrame> {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kStatsResponse;

  StatsFormat format = StatsFormat::kPrometheus;
  std::string text;  // the exposition document

  static StatsResponseFrame success(std::uint64_t request_id,
                                    StatsFormat format, std::string text);
};

/// One subsystem's readiness as reported in a health response. `value`
/// is the component's load measure (queue saturation in [0,1], reactor
/// loop lag in us, kvstore garbage ratio in [0,1]); `ok` is the
/// component's own verdict against its threshold.
struct HealthComponentFrame {
  std::string name;
  bool ok = true;
  double value = 0;
  std::string detail;
};

/// Ask the server whether it is ready for traffic. Answered inline by the
/// router (never queued), so a saturated dispatcher still reports its
/// saturation instead of timing out the probe.
struct HealthRequestFrame {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kHealthRequest;
  using Response = HealthResponseFrame;

  std::uint64_t request_id = 0;
};

struct HealthResponseFrame : ResponseHead<HealthResponseFrame> {
  static constexpr serial::TypeTag kTag = serial::TypeTag::kHealthResponse;

  bool healthy = false;  // AND over every component's ok
  std::vector<HealthComponentFrame> components;

  static HealthResponseFrame success(
      std::uint64_t request_id, std::vector<HealthComponentFrame> components);
};

/// Every wire frame type, in tag order: the types `encode` and `decode`
/// accept. `with_tag` finds one by its kTag, so the router's failure path
/// and the fuzzer cover a listed frame with no edit of their own.
template <typename... F>
struct FrameList {
  template <typename G>
  static constexpr bool contains = (std::same_as<G, F> || ...);

  /// Calls `fn(std::type_identity<G>{})` for the listed G whose kTag is
  /// `tag`; false when no listed frame carries that tag.
  template <typename Fn>
  static bool with_tag(serial::TypeTag tag, Fn&& fn) {
    return ((F::kTag == tag && (fn(std::type_identity<F>{}), true)) || ...);
  }
};
using WireFrames =
    FrameList<SignRequestFrame, SignResponseFrame, VerifyRequestFrame,
              VerifyResponseFrame, KeygenRequestFrame, KeygenResponseFrame,
              StatsRequestFrame, StatsResponseFrame, HealthRequestFrame,
              HealthResponseFrame>;

template <typename F>
concept WireFrame = WireFrames::contains<F>;

/// Encode as a length-prefixed serial frame ready to write to a stream.
template <WireFrame F>
std::vector<std::uint8_t> encode(const F& frame);

/// Decode the serial-frame part (no length prefix — the stream layer has
/// already consumed it). Throws serial::SerialError on malformed input.
template <WireFrame F>
F decode(std::span<const std::uint8_t> frame);

/// The two response decoders servebench's client names.
inline SignResponseFrame decode_sign_response(
    std::span<const std::uint8_t> frame) {
  return decode<SignResponseFrame>(frame);
}
inline VerifyResponseFrame decode_verify_response(
    std::span<const std::uint8_t> frame) {
  return decode<VerifyResponseFrame>(frame);
}

/// Blocking stream I/O over a file descriptor (socket or pipe) — thin
/// aliases of net::write_frame / net::read_frame, kept so message-layer
/// callers read naturally. Same contracts: write_message is false on any
/// short write / error; read_message is nullopt on clean EOF at a message
/// boundary and throws serial::SerialError on a torn message or an
/// oversized length.
inline bool write_message(int fd, std::span<const std::uint8_t> encoded) {
  return net::write_frame(fd, encoded);
}
inline std::optional<std::vector<std::uint8_t>> read_message(int fd) {
  return net::read_frame(fd);
}

}  // namespace cgs::serve
