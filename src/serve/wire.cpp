#include "serve/wire.h"

#include <bit>
#include <cstring>

#include "falcon/codec.h"
#include "serial/serial.h"

namespace cgs::serve {

namespace {

// The two directions of the codec. Each frame's fields() runs over one
// of them: Enc appends every field to a serial::Writer, Dec reads it back
// from a serial::Reader into the frame. Enc sees the frame const, so a
// field list cannot write through it; checks are no-ops on Enc, which
// writes whatever the frame holds.
struct Enc {
  static constexpr bool kEncoding = true;
  serial::Writer w;

  template <typename T>
  void u8(T v) { w.u8(static_cast<std::uint8_t>(v)); }
  template <typename T>
  void u16(T v) { w.u16(static_cast<std::uint16_t>(v)); }
  void u32(std::uint32_t v) { w.u32(v); }
  void u64(std::uint64_t v) { w.u64(v); }
  void boolean(bool v) { w.boolean(v); }
  void f64(double v) { w.u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& v) { w.str(v); }
  template <std::size_t N>
  void raw(const std::array<std::uint8_t, N>& v) { w.bytes(v); }
  /// u64 length | bytes.
  void blob(const std::vector<std::uint8_t>& v) {
    w.u64(v.size());
    w.bytes(v);
  }
  /// The elements of `v`, each by `fn`; the count is written elsewhere.
  template <typename V, typename Fn>
  void each(const V& v, std::uint64_t, std::size_t, Fn fn) {
    for (const auto& x : v) fn(x);
  }
  /// An optional trailing block: present when the frame sets it.
  bool trailing(bool set) const { return set; }
  void check(bool, const char*) const {}
};

struct Dec {
  static constexpr bool kEncoding = false;
  serial::Reader r;

  template <typename T>
  void u8(T& v) { v = static_cast<T>(r.u8()); }
  template <typename T>
  void u16(T& v) { v = static_cast<T>(r.u16()); }
  void u32(std::uint32_t& v) { v = r.u32(); }
  void u64(std::uint64_t& v) { v = r.u64(); }
  void boolean(bool& v) { v = r.boolean(); }
  void f64(double& v) { v = std::bit_cast<double>(r.u64()); }
  void str(std::string& v) { v = r.str(); }
  template <std::size_t N>
  void raw(std::array<std::uint8_t, N>& v) {
    std::memcpy(v.data(), r.bytes(N).data(), N);
  }
  void blob(std::vector<std::uint8_t>& v) {
    const std::uint64_t len = r.u64();
    check(len <= r.remaining(), "length overruns payload");
    const auto bytes = r.bytes(static_cast<std::size_t>(len));
    v.assign(bytes.begin(), bytes.end());
  }
  /// `n` elements of at least `min_bytes` each: a count the remaining
  /// payload cannot hold is rejected before anything is allocated.
  template <typename V, typename Fn>
  void each(V& v, std::uint64_t n, std::size_t min_bytes, Fn fn) {
    check(n <= r.remaining() / min_bytes, "element count overruns payload");
    v.resize(static_cast<std::size_t>(n));
    for (auto& x : v) fn(x);
  }
  /// An optional trailing block: present when payload bytes remain.
  bool trailing(bool) const { return r.remaining() != 0; }
  void check(bool ok, const char* what) const {
    if (!ok) throw serial::SerialError(std::string("wire: ") + what);
  }
};

// A frame as `Io` sees it: const to the encoder, mutable to the decoder.
template <typename Io, typename F>
using Ref = std::conditional_t<Io::kEncoding, const F&, F&>;

// ------------------------------------------------------ shared pieces ---

template <typename Io>
void degree(Io& io, Ref<Io, std::uint64_t> n) {
  io.u64(n);
  io.check(n != 0 && n <= (1u << 14), "degree out of range");
}

// A signature: degree | 40-byte nonce | u64-length-prefixed compressed s1.
template <typename Io, typename F>
void signature_fields(Io& io, F& f) {
  degree(io, f.degree);
  io.raw(f.nonce);
  io.blob(f.s1_compressed);
}

// Optional trailing request-context block (see the header comment): v1
// carries the trace id, v2 adds the deadline budget. The encoder emits
// the oldest version that holds the fields actually set, absent when
// both are zero; the decoder accepts absence and both known versions,
// nothing else.
constexpr std::uint8_t kTraceCtxVersion = 1;
constexpr std::uint8_t kDeadlineCtxVersion = 2;

template <typename Io, typename F>
void request_ctx(Io& io, F& f) {
  if (!io.trailing(f.trace_id != 0 || f.deadline_us != 0)) return;
  std::uint8_t version =
      f.deadline_us != 0 ? kDeadlineCtxVersion : kTraceCtxVersion;
  io.u8(version);
  io.check(version == kTraceCtxVersion || version == kDeadlineCtxVersion,
           "unknown request context version");
  io.u64(f.trace_id);
  if (version == kDeadlineCtxVersion) io.u64(f.deadline_us);
}

// request_id | ok | error string when !ok. True when the frame's own
// fields follow.
template <typename Io, typename F>
bool response_head(Io& io, F& f) {
  io.u64(f.request_id);
  io.boolean(f.ok);
  if (!f.ok) io.str(f.error);
  return f.ok;
}

// -------------------------------------------------------- the frames ---

template <typename Io>
void fields(Io& io, Ref<Io, SignRequestFrame> f) {
  io.u64(f.request_id);
  io.u64(f.key_id);
  io.str(f.message);
  request_ctx(io, f);
}

template <typename Io>
void fields(Io& io, Ref<Io, SignResponseFrame> f) {
  if (response_head(io, f)) signature_fields(io, f);
}

template <typename Io>
void fields(Io& io, Ref<Io, VerifyRequestFrame> f) {
  io.u64(f.request_id);
  io.u64(f.key_id);
  io.str(f.message);
  signature_fields(io, f);
  request_ctx(io, f);
}

template <typename Io>
void fields(Io& io, Ref<Io, VerifyResponseFrame> f) {
  if (response_head(io, f)) io.boolean(f.accepted);
}

template <typename Io>
void fields(Io& io, Ref<Io, KeygenRequestFrame> f) {
  io.u64(f.request_id);
  degree(io, f.degree);
  io.u64(f.seed);
  request_ctx(io, f);
}

template <typename Io>
void fields(Io& io, Ref<Io, KeygenResponseFrame> f) {
  if (!response_head(io, f)) return;
  io.u64(f.key_id);
  degree(io, f.degree);
  // h lives in [0, q) with q = 12289 < 2^16: `degree` u16 values that end
  // the payload.
  io.each(f.h, f.degree, 2, [&io](auto& v) {
    io.u16(v);
    io.check(v < falcon::kQ, "public key coefficient out of range");
  });
}

template <typename Io>
void fields(Io& io, Ref<Io, StatsRequestFrame> f) {
  io.u64(f.request_id);
  io.u8(f.format);
  io.check(f.format <= StatsFormat::kJson, "unknown stats format");
}

template <typename Io>
void fields(Io& io, Ref<Io, StatsResponseFrame> f) {
  if (!response_head(io, f)) return;
  io.u8(f.format);
  io.check(f.format <= StatsFormat::kJson, "unknown stats format");
  io.str(f.text);
}

template <typename Io>
void fields(Io& io, Ref<Io, HealthRequestFrame> f) {
  io.u64(f.request_id);
}

template <typename Io>
void fields(Io& io, Ref<Io, HealthComponentFrame> c) {
  io.str(c.name);
  io.boolean(c.ok);
  io.f64(c.value);
  io.str(c.detail);
}

template <typename Io>
void fields(Io& io, Ref<Io, HealthResponseFrame> f) {
  if (!response_head(io, f)) return;
  io.boolean(f.healthy);
  std::uint32_t count = static_cast<std::uint32_t>(f.components.size());
  io.u32(count);
  // A component takes at least 25 bytes (two u64 string lengths, a bool
  // and the f64), so no count above remaining / 18 can fit.
  io.each(f.components, count, 18, [&io](auto& c) { fields(io, c); });
}

falcon::Signature signature_from_fields(
    std::uint64_t degree, const std::array<std::uint8_t, 40>& nonce,
    const std::vector<std::uint8_t>& s1_compressed, const char* what) {
  auto s1 = falcon::decompress_s1(s1_compressed,
                                  static_cast<std::size_t>(degree));
  if (!s1 || s1->size() != degree)
    throw serial::SerialError(std::string(what) +
                              " carries malformed s1 coding");
  falcon::Signature sig;
  sig.nonce = nonce;
  sig.s1 = std::move(*s1);
  return sig;
}

}  // namespace

template <WireFrame F>
std::vector<std::uint8_t> encode(const F& frame) {
  Enc io;
  fields(io, frame);
  return net::length_prefixed(serial::wrap(F::kTag, io.w.take()));
}

template <WireFrame F>
F decode(std::span<const std::uint8_t> frame) {
  Dec io{serial::Reader(serial::unwrap(frame, F::kTag))};
  F out;
  fields(io, out);
  io.r.finish();
  return out;
}

#define CGS_WIRE_CODEC(F)                                  \
  template std::vector<std::uint8_t> encode<F>(const F&); \
  template F decode<F>(std::span<const std::uint8_t>)
CGS_WIRE_CODEC(SignRequestFrame);
CGS_WIRE_CODEC(SignResponseFrame);
CGS_WIRE_CODEC(VerifyRequestFrame);
CGS_WIRE_CODEC(VerifyResponseFrame);
CGS_WIRE_CODEC(KeygenRequestFrame);
CGS_WIRE_CODEC(KeygenResponseFrame);
CGS_WIRE_CODEC(StatsRequestFrame);
CGS_WIRE_CODEC(StatsResponseFrame);
CGS_WIRE_CODEC(HealthRequestFrame);
CGS_WIRE_CODEC(HealthResponseFrame);
#undef CGS_WIRE_CODEC

SignResponseFrame SignResponseFrame::success(std::uint64_t request_id,
                                             const falcon::Signature& sig) {
  SignResponseFrame resp;
  resp.request_id = request_id;
  resp.ok = true;
  resp.degree = sig.s1.size();
  resp.nonce = sig.nonce;
  resp.s1_compressed = falcon::compress_s1(sig.s1);
  return resp;
}

falcon::Signature SignResponseFrame::to_signature() const {
  if (!ok)
    throw serial::SerialError("sign response is an error frame: " + error);
  return signature_from_fields(degree, nonce, s1_compressed,
                               "sign response");
}

VerifyRequestFrame VerifyRequestFrame::make(std::uint64_t request_id,
                                            std::uint64_t key_id,
                                            std::string message,
                                            const falcon::Signature& sig) {
  VerifyRequestFrame req;
  req.request_id = request_id;
  req.key_id = key_id;
  req.message = std::move(message);
  req.degree = sig.s1.size();
  req.nonce = sig.nonce;
  req.s1_compressed = falcon::compress_s1(sig.s1);
  return req;
}

falcon::Signature VerifyRequestFrame::to_signature() const {
  return signature_from_fields(degree, nonce, s1_compressed,
                               "verify request");
}

VerifyResponseFrame VerifyResponseFrame::verdict(std::uint64_t request_id,
                                                 bool accepted) {
  VerifyResponseFrame resp;
  resp.request_id = request_id;
  resp.ok = true;
  resp.accepted = accepted;
  return resp;
}

KeygenResponseFrame KeygenResponseFrame::success(
    std::uint64_t request_id, std::uint64_t key_id,
    const std::vector<std::uint32_t>& h, std::size_t degree) {
  KeygenResponseFrame resp;
  resp.request_id = request_id;
  resp.ok = true;
  resp.key_id = key_id;
  resp.degree = degree;
  resp.h = h;
  return resp;
}

StatsResponseFrame StatsResponseFrame::success(std::uint64_t request_id,
                                               StatsFormat format,
                                               std::string text) {
  StatsResponseFrame resp;
  resp.request_id = request_id;
  resp.ok = true;
  resp.format = format;
  resp.text = std::move(text);
  return resp;
}

HealthResponseFrame HealthResponseFrame::success(
    std::uint64_t request_id, std::vector<HealthComponentFrame> components) {
  HealthResponseFrame resp;
  resp.request_id = request_id;
  resp.ok = true;
  resp.healthy = true;
  for (const HealthComponentFrame& c : components)
    resp.healthy = resp.healthy && c.ok;
  resp.components = std::move(components);
  return resp;
}

}  // namespace cgs::serve
