// Structure-aware wire-protocol fuzzing: seeded-PRNG mutations (bit
// flips, truncations, length-field lies, trailing garbage, tag confusion,
// duplicated and torn frames) over every wire frame type, at both the
// decode layer (frame bytes -> typed frame) and the stream layer
// (read_message over a pipe). The contract under test: any corrupted
// input produces a typed serial::SerialError — never a crash, an
// over-read (ASan/UBSan CI job), or a silently accepted corrupted
// payload. Deterministic: every mutation derives from one seed.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "net/overload.h"
#include "prng/splitmix.h"
#include "serial/serial.h"
#include "serve/wire.h"

namespace cgs::serve {
namespace {

// A valid encoded message (with length prefix) plus its expected tag.
struct Sample {
  serial::TypeTag tag;
  std::vector<std::uint8_t> encoded;
};

falcon::Signature synthetic_signature(prng::SplitMix64Source& rng,
                                      std::size_t n) {
  falcon::Signature sig;
  for (auto& b : sig.nonce) b = static_cast<std::uint8_t>(rng.next_word());
  sig.s1.resize(n);
  for (auto& v : sig.s1)
    v = static_cast<std::int32_t>(rng.next_word() % 801) - 400;
  return sig;
}

std::vector<Sample> make_samples(prng::SplitMix64Source& rng) {
  std::vector<Sample> samples;

  SignRequestFrame sign_req;
  sign_req.request_id = 42;
  sign_req.key_id = 0xfeedbeefcafef00dull;
  sign_req.message = "fuzz me gently";
  samples.push_back({serial::TypeTag::kSignRequest, encode(sign_req)});

  const falcon::Signature sig = synthetic_signature(rng, 64);
  samples.push_back({serial::TypeTag::kSignResponse,
                     encode(SignResponseFrame::success(43, sig))});
  samples.push_back({serial::TypeTag::kSignResponse,
                     encode(SignResponseFrame::failure(44, "queue-full"))});

  // Trace-carrying variant: the optional trailing context block (the
  // wire-revision corner — old frames have no block, these do).
  SignRequestFrame traced_sign = sign_req;
  traced_sign.request_id = 142;
  traced_sign.trace_id = 0x7ace1d7ace1d7aceull;
  samples.push_back({serial::TypeTag::kSignRequest, encode(traced_sign)});
  // Deadline-carrying variant: forces the v2 context block (trace +
  // deadline), the widest trailing-block shape a mutation can tear.
  SignRequestFrame deadline_sign = sign_req;
  deadline_sign.request_id = 242;
  deadline_sign.deadline_us = 15'000;
  samples.push_back({serial::TypeTag::kSignRequest, encode(deadline_sign)});

  samples.push_back(
      {serial::TypeTag::kVerifyRequest,
       encode(VerifyRequestFrame::make(45, 7, "verify this", sig))});
  VerifyRequestFrame traced_verify =
      VerifyRequestFrame::make(145, 7, "verify this too", sig);
  traced_verify.trace_id = 0xf00dd00ff00dd00full;
  samples.push_back({serial::TypeTag::kVerifyRequest, encode(traced_verify)});
  VerifyRequestFrame deadline_verify =
      VerifyRequestFrame::make(245, 7, "verify on a budget", sig);
  deadline_verify.trace_id = 0x7ace000000000245ull;
  deadline_verify.deadline_us = 2'500;
  samples.push_back(
      {serial::TypeTag::kVerifyRequest, encode(deadline_verify)});
  samples.push_back({serial::TypeTag::kVerifyResponse,
                     encode(VerifyResponseFrame::verdict(46, true))});
  samples.push_back({serial::TypeTag::kVerifyResponse,
                     encode(VerifyResponseFrame::failure(47, "shutdown"))});

  KeygenRequestFrame kg_req;
  kg_req.request_id = 48;
  kg_req.degree = 64;
  kg_req.seed = 0x5eed;
  samples.push_back({serial::TypeTag::kKeygenRequest, encode(kg_req)});
  KeygenRequestFrame traced_kg = kg_req;
  traced_kg.request_id = 148;
  traced_kg.trace_id = 0xbead5eedbead5eedull;
  samples.push_back({serial::TypeTag::kKeygenRequest, encode(traced_kg)});
  KeygenRequestFrame deadline_kg = kg_req;
  deadline_kg.request_id = 248;
  deadline_kg.deadline_us = 500'000;
  samples.push_back({serial::TypeTag::kKeygenRequest, encode(deadline_kg)});

  std::vector<std::uint32_t> h(64);
  for (auto& v : h)
    v = static_cast<std::uint32_t>(rng.next_word() % falcon::kQ);
  samples.push_back({serial::TypeTag::kKeygenResponse,
                     encode(KeygenResponseFrame::success(49, 0xabcd, h, 64))});
  samples.push_back({serial::TypeTag::kKeygenResponse,
                     encode(KeygenResponseFrame::failure(50, "solver died"))});

  StatsRequestFrame stats_req;
  stats_req.request_id = 51;
  stats_req.format = StatsFormat::kJson;
  samples.push_back({serial::TypeTag::kStatsRequest, encode(stats_req)});

  samples.push_back(
      {serial::TypeTag::kStatsResponse,
       encode(StatsResponseFrame::success(
           52, StatsFormat::kPrometheus,
           "# TYPE cgs_events_total counter\ncgs_events_total 3\n"))});
  samples.push_back({serial::TypeTag::kStatsResponse,
                     encode(StatsResponseFrame::failure(53, "draining"))});

  // Health surface: the request is near-minimal (one u64 — truncations
  // bite fast), the response carries a variable component list whose
  // count field is a favorite target for length lies.
  HealthRequestFrame health_req;
  health_req.request_id = 54;
  samples.push_back({serial::TypeTag::kHealthRequest, encode(health_req)});

  std::vector<HealthComponentFrame> components;
  components.push_back({"sign_queue", true, 0.25, "worst lane depth"});
  components.push_back({"net_loop_lag", false, 250000.0, "reactor 3 stalled"});
  samples.push_back({serial::TypeTag::kHealthResponse,
                     encode(HealthResponseFrame::success(55, components))});
  samples.push_back({serial::TypeTag::kHealthResponse,
                     encode(HealthResponseFrame::failure(56, "draining"))});

  // The transport's typed shed answer (net/overload.h) shares the serial
  // frame format and the clients' decode path — fuzz it with the rest.
  net::OverloadedFrame shed;
  shed.retry_after_ms = 250;
  shed.reason = "owed-responses cap";
  samples.push_back({serial::TypeTag::kOverloaded, net::encode_overloaded(shed)});
  // Admission sheds name the request they answer via the optional
  // trailing id — another trailing-field shape for mutations to chew on.
  net::OverloadedFrame named_shed;
  named_shed.retry_after_ms = 8;
  named_shed.reason = "tenant-full";
  named_shed.request_id = 0x1d1d1d1d1d1d1d1dull;
  samples.push_back(
      {serial::TypeTag::kOverloaded, net::encode_overloaded(named_shed)});

  return samples;
}

// Decode the serial frame (no length prefix) with the decoder matching
// `tag`: any frame wire.h lists in WireFrames, or the transport's shed.
// Decoded signature-bearing frames also exercise decompression.
void decode_as(serial::TypeTag tag, std::span<const std::uint8_t> frame) {
  if (tag == serial::TypeTag::kOverloaded) {
    net::decode_overloaded(frame);
    return;
  }
  const bool wire = WireFrames::with_tag(
      tag, [frame]<typename F>(std::type_identity<F>) {
        const F decoded = decode<F>(frame);
        if constexpr (requires { decoded.to_signature(); })
          if (decoded.degree != 0) decoded.to_signature();  // 0: an error
      });
  // Cache-layer tags (netlist, sampler, ...) are valid serial frames but
  // not wire messages; a mutation steering a frame there gets the same
  // typed rejection a server's router would produce.
  if (!wire) throw serial::SerialError("no wire decoder for this tag");
}

// ------------------------------------------------------------ pinning ---

// The corpus's exact bytes, length prefix included: a size and hash64 per
// frame. Any change to a frame's field order, widths or optional-block
// rules moves one of these, so a codec refactor that must keep the bytes
// on the wire proves it here.
TEST(WireFuzz, CorpusBytesPinned) {
  struct Pin {
    std::size_t size;
    std::uint64_t hash;
  };
  constexpr Pin kPins[] = {
      {70, 0xaa5a2ec570831f48ull},
      {179, 0xbf9b5819afda67b2ull},
      {59, 0xf0f5ccc86b2065daull},
      {79, 0x5fcf9106dd850d32ull},
      {87, 0xd42c676593df0af2ull},
      {205, 0xf10978955ac30baaull},
      {218, 0x34411538f42e09eaull},
      {229, 0xfd0f4e1b1b6400f6ull},
      {42, 0x39b0eeb7ee3a34e6ull},
      {57, 0xbfba756408a9a0aeull},
      {56, 0x663f5d054feac6c6ull},
      {65, 0x8a442651c3ba9c4aull},
      {73, 0x4207272a997aa6aaull},
      {185, 0x4bf38c555a28030aull},
      {60, 0x2a531f3d5445d40aull},
      {41, 0x46c9c4c751baebbaull},
      {101, 0x349524558847f5acull},
      {57, 0x92a4493595260c9aull},
      {40, 0x8ec922fcf1c5e988ull},
      {151, 0x6c2ee6bb99932e9aull},
      {57, 0xed1b408954d77fceull},
      {62, 0x68a9e0703c8f34a6ull},
      {63, 0x24f411a241151192ull},
  };
  prng::SplitMix64Source rng(0xB17E5);
  const std::vector<Sample> samples = make_samples(rng);
  ASSERT_EQ(samples.size(), std::size(kPins));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].encoded.size(), kPins[i].size) << "frame " << i;
    EXPECT_EQ(serial::hash64(samples[i].encoded), kPins[i].hash)
        << "frame " << i;
  }
}

// --------------------------------------------------------- decode layer ---

TEST(WireFuzz, EveryCorruptedFrameYieldsTypedErrorNeverAcceptance) {
  prng::SplitMix64Source rng(0xF022ED1);
  const std::vector<Sample> samples = make_samples(rng);

  // Sanity: the unmutated frames all decode.
  for (const Sample& s : samples) {
    const std::span<const std::uint8_t> frame(s.encoded.data() + 4,
                                              s.encoded.size() - 4);
    EXPECT_NO_THROW(decode_as(s.tag, frame));
  }

  constexpr int kIterations = 12000;
  int mutated_frames = 0, rejected = 0, unchanged_ok = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const Sample& base = samples[rng.next_word() % samples.size()];
    // The serial frame as the stream layer would deliver it.
    std::vector<std::uint8_t> frame(base.encoded.begin() + 4,
                                    base.encoded.end());
    const std::vector<std::uint8_t> original = frame;

    switch (rng.next_word() % 6) {
      case 0: {  // single bit flip
        const std::size_t bit = rng.next_word() % (8 * frame.size());
        frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        break;
      }
      case 1: {  // burst of up to 8 bit flips
        const int flips = 1 + static_cast<int>(rng.next_word() % 8);
        for (int f = 0; f < flips; ++f) {
          const std::size_t bit = rng.next_word() % (8 * frame.size());
          frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      }
      case 2:  // truncation (possibly to empty)
        frame.resize(rng.next_word() % frame.size());
        break;
      case 3: {  // length-field lie inside the serial header (payload size)
        if (frame.size() >= 20) {
          const std::uint64_t lie = rng.next_word();
          std::memcpy(frame.data() + 12, &lie, 8);
        }
        break;
      }
      case 4: {  // trailing garbage (a torn next frame glued on)
        const int extra = 1 + static_cast<int>(rng.next_word() % 32);
        for (int e = 0; e < extra; ++e)
          frame.push_back(static_cast<std::uint8_t>(rng.next_word()));
        break;
      }
      default: {  // random byte splice
        const std::size_t at = rng.next_word() % frame.size();
        const std::size_t len =
            std::min(frame.size() - at,
                     1 + static_cast<std::size_t>(rng.next_word() % 16));
        for (std::size_t i = 0; i < len; ++i)
          frame[at + i] = static_cast<std::uint8_t>(rng.next_word());
        break;
      }
    }

    // Tag confusion rides on top: a third of the time, decode with a
    // deliberately wrong decoder.
    serial::TypeTag decoder_tag = base.tag;
    if (rng.next_word() % 3 == 0)
      decoder_tag = samples[rng.next_word() % samples.size()].tag;

    ++mutated_frames;
    const bool changed = frame != original || decoder_tag != base.tag;
    try {
      decode_as(decoder_tag, frame);
      // Reached only when decode succeeded: that is acceptance — it must
      // mean the mutation was an identity (or an alias decoder for the
      // same tag value).
      EXPECT_FALSE(changed)
          << "iteration " << iter << ": corrupted frame was accepted";
      ++unchanged_ok;
    } catch (const serial::SerialError&) {
      ++rejected;  // the typed rejection every corruption must produce
    }
    // Any other exception type escapes and fails the test; memory errors
    // are the sanitizer job's to catch.
  }

  EXPECT_GE(mutated_frames, 10000);
  EXPECT_GT(rejected, mutated_frames / 2);  // mutations rarely miss
  std::printf("fuzzed %d frames: %d rejected, %d identity-mutations ok\n",
              mutated_frames, rejected, unchanged_ok);
}

// --------------------------------------------------------- stream layer ---

TEST(WireFuzz, MutatedByteStreamsNeverCrashOrOverread) {
  prng::SplitMix64Source rng(0x57AE4);
  const std::vector<Sample> samples = make_samples(rng);

  constexpr int kStreams = 150;
  constexpr int kMessagesPerStream = 30;
  int mutated_messages = 0;
  std::uint64_t frames_delivered = 0, typed_errors = 0;

  for (int s = 0; s < kStreams; ++s) {
    // Build a stream: mostly intact messages, some duplicated, some
    // mutated (bit flips / length-prefix lies), optionally torn at the
    // end — then push the bytes through a real pipe.
    std::vector<std::uint8_t> blob;
    for (int m = 0; m < kMessagesPerStream; ++m) {
      std::vector<std::uint8_t> msg =
          samples[rng.next_word() % samples.size()].encoded;
      const std::uint64_t kind = rng.next_word() % 8;
      if (kind == 0) {  // duplicate: same frame twice is two valid reads
        blob.insert(blob.end(), msg.begin(), msg.end());
      } else if (kind == 1) {  // bit flip anywhere (prefix included)
        const std::size_t bit = rng.next_word() % (8 * msg.size());
        msg[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        ++mutated_messages;
      } else if (kind == 2) {  // length-prefix lie
        const std::uint32_t lie = static_cast<std::uint32_t>(rng.next_word());
        std::memcpy(msg.data(), &lie, 4);
        ++mutated_messages;
      }
      blob.insert(blob.end(), msg.begin(), msg.end());
    }
    if (rng.next_word() % 2 == 0) {  // tear the stream mid-message
      std::vector<std::uint8_t> torn =
          samples[rng.next_word() % samples.size()].encoded;
      const std::size_t keep = 1 + rng.next_word() % (torn.size() - 1);
      blob.insert(blob.end(), torn.begin(),
                  torn.begin() + static_cast<std::ptrdiff_t>(keep));
      ++mutated_messages;
    }

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_LT(blob.size(), 60000u);  // stays under the pipe buffer: the
                                     // write below cannot block
    ASSERT_EQ(::write(fds[1], blob.data(), blob.size()),
              static_cast<ssize_t>(blob.size()));
    ::close(fds[1]);

    try {
      while (auto frame = read_message(fds[0])) {
        ++frames_delivered;
        try {
          decode_as(serial::peek_tag(*frame), *frame);
        } catch (const serial::SerialError&) {
          ++typed_errors;  // stream stays readable after a bad frame
        }
      }
    } catch (const serial::SerialError&) {
      ++typed_errors;  // torn prefix/body or oversized length: stream dead
    }
    ::close(fds[0]);
  }

  EXPECT_GT(mutated_messages, 1000);
  EXPECT_GT(frames_delivered, 0u);
  EXPECT_GT(typed_errors, 0u);
  std::printf("streamed %d mutated messages: %llu frames delivered, %llu "
              "typed errors\n",
              mutated_messages,
              static_cast<unsigned long long>(frames_delivered),
              static_cast<unsigned long long>(typed_errors));
}

}  // namespace
}  // namespace cgs::serve
