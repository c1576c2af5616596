// Serialization subsystem: primitive round trips, byte-stable re-encoding,
// bit-identical sampler behavior after a round trip, and hard rejection of
// corrupted/foreign/version-skewed frames.

#include <gtest/gtest.h>

#include <vector>

#include "ct/batch_sampler.h"
#include "prng/chacha20.h"
#include "serial/formats.h"
#include "serial/serial.h"

namespace cgs::serial {
namespace {

gauss::GaussianParams small_params() {
  return gauss::GaussianParams::sigma_1(48);
}

ct::SynthesizedSampler small_sampler() {
  const gauss::ProbMatrix m(small_params());
  return ct::synthesize(m, {});
}

TEST(WriterReader, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-12345);
  w.boolean(true);
  w.boolean(false);
  w.str("sigma=2");
  const auto bytes = w.take();

  Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "sigma=2");
  EXPECT_NO_THROW(r.finish());
}

TEST(WriterReader, OverrunThrows) {
  Writer w;
  w.u32(7);
  const auto bytes = w.take();
  Reader r(bytes);
  r.u32();
  EXPECT_THROW(r.u8(), SerialError);
}

TEST(WriterReader, MalformedBooleanThrows) {
  const std::vector<std::uint8_t> bytes = {2};
  Reader r(bytes);
  EXPECT_THROW(r.boolean(), SerialError);
}

TEST(WriterReader, StringLengthBeyondDataThrows) {
  Writer w;
  w.u64(1000);  // claims 1000 bytes, provides none
  const auto bytes = w.take();
  Reader r(bytes);
  EXPECT_THROW(r.str(), SerialError);
}

TEST(Frame, UnwrapRejectsCorruption) {
  const auto synth = small_sampler();
  const auto good = serialize(small_params(), {}, synth);
  ASSERT_NO_THROW(deserialize_sampler(good));

  {  // bad magic
    auto bad = good;
    bad[0] ^= 0xFF;
    EXPECT_THROW(deserialize_sampler(bad), SerialError);
  }
  {  // future format version
    auto bad = good;
    bad[4] += 1;
    EXPECT_THROW(deserialize_sampler(bad), SerialError);
  }
  {  // wrong type tag (a sampler frame is not a netlist frame)
    EXPECT_THROW(deserialize_netlist(good), SerialError);
  }
  {  // truncated payload
    auto bad = good;
    bad.resize(bad.size() - 5);
    EXPECT_THROW(deserialize_sampler(bad), SerialError);
  }
  {  // truncated mid-header
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + 10);
    EXPECT_THROW(deserialize_sampler(bad), SerialError);
  }
  {  // single flipped payload bit -> checksum mismatch
    auto bad = good;
    bad[bad.size() / 2] ^= 0x10;
    EXPECT_THROW(deserialize_sampler(bad), SerialError);
  }
  {  // trailing garbage
    auto bad = good;
    bad.push_back(0);
    EXPECT_THROW(deserialize_sampler(bad), SerialError);
  }
  {  // empty input
    EXPECT_THROW(deserialize_sampler(std::vector<std::uint8_t>{}), SerialError);
  }
}

TEST(NetlistSerial, RoundTripIsByteStable) {
  const auto synth = small_sampler();
  const auto bytes1 = serialize(synth.netlist);
  const bf::Netlist back = deserialize_netlist(bytes1);
  const auto bytes2 = serialize(back);
  EXPECT_EQ(bytes1, bytes2);

  ASSERT_EQ(back.num_inputs(), synth.netlist.num_inputs());
  ASSERT_EQ(back.nodes().size(), synth.netlist.nodes().size());
  ASSERT_EQ(back.outputs(), synth.netlist.outputs());

  // Behavioral equivalence on random word inputs.
  prng::ChaCha20Source rng(77);
  std::vector<std::uint64_t> in(static_cast<std::size_t>(back.num_inputs()));
  std::vector<std::uint64_t> out_a(back.outputs().size());
  std::vector<std::uint64_t> out_b(back.outputs().size());
  std::vector<std::uint64_t> scratch(back.nodes().size());
  for (int it = 0; it < 50; ++it) {
    rng.fill_words(in);
    synth.netlist.eval(in.data(), out_a.data(), scratch.data());
    back.eval(in.data(), out_b.data(), scratch.data());
    ASSERT_EQ(out_a, out_b) << "iteration " << it;
  }
}

TEST(NetlistSerial, FromPartsRejectsMalformedGraphs) {
  using bf::Node;
  using bf::Op;
  // Forward reference: node 0 uses node 1.
  EXPECT_THROW(bf::Netlist::from_parts(1, {Node{Op::kNot, 1, -1}}, {}), Error);
  // Input index out of range.
  EXPECT_THROW(bf::Netlist::from_parts(1, {Node{Op::kInput, 3, -1}}, {}),
               Error);
  // Output id out of range.
  EXPECT_THROW(
      bf::Netlist::from_parts(1, {Node{Op::kConst0, -1, -1}}, {5}), Error);
  // Negative operand on a binary op.
  EXPECT_THROW(
      bf::Netlist::from_parts(0, {Node{Op::kConst1, -1, -1},
                                  Node{Op::kAnd, 0, -1}}, {}),
      Error);
  // Valid minimal netlist passes.
  EXPECT_NO_THROW(
      bf::Netlist::from_parts(1, {Node{Op::kInput, 0, -1}}, {0}));
}

TEST(SamplerSerial, RoundTripPreservesEverything) {
  const auto synth = small_sampler();
  const auto bytes1 = serialize(small_params(), {}, synth);
  const SamplerFrame frame = deserialize_sampler(bytes1);
  const ct::SynthesizedSampler& back = frame.sampler;
  EXPECT_EQ(serialize(frame.params, frame.config, back), bytes1);

  // The frame carries the binding it was written with.
  EXPECT_EQ(frame.params.describe(), small_params().describe());
  EXPECT_EQ(frame.config.mode, ct::SynthesisConfig{}.mode);

  EXPECT_EQ(back.precision, synth.precision);
  EXPECT_EQ(back.num_output_bits, synth.num_output_bits);
  EXPECT_EQ(back.has_valid_bit, synth.has_valid_bit);
  EXPECT_EQ(back.stats.num_leaves, synth.stats.num_leaves);
  EXPECT_EQ(back.stats.max_kappa, synth.stats.max_kappa);
  EXPECT_EQ(back.stats.delta, synth.stats.delta);
  EXPECT_EQ(back.stats.cubes_raw, synth.stats.cubes_raw);
  EXPECT_EQ(back.stats.cubes_minimized, synth.stats.cubes_minimized);
  EXPECT_EQ(back.stats.netlist_ops, synth.stats.netlist_ops);
  EXPECT_EQ(back.stats.all_exact, synth.stats.all_exact);
}

TEST(SamplerSerial, RoundTrippedSamplerIsBitIdentical) {
  const auto params = gauss::GaussianParams::sigma_2(64);
  const gauss::ProbMatrix m(params);
  ct::SynthesizedSampler fresh = ct::synthesize(m, {});
  ct::SynthesizedSampler loaded =
      deserialize_sampler(serialize(params, {}, fresh)).sampler;

  ct::BitslicedSampler a(std::move(fresh));
  ct::BitslicedSampler b(std::move(loaded));
  prng::ChaCha20Source rng_a(2019), rng_b(2019);
  std::int32_t batch_a[64], batch_b[64];
  for (int it = 0; it < 200; ++it) {
    const auto va = a.sample_batch(rng_a, batch_a);
    const auto vb = b.sample_batch(rng_b, batch_b);
    ASSERT_EQ(va, vb);
    for (int lane = 0; lane < 64; ++lane)
      ASSERT_EQ(batch_a[lane], batch_b[lane]) << it << ":" << lane;
  }
}

TEST(ProbMatrixSerial, RoundTripIsByteStableAndExact) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(64));
  const auto bytes1 = serialize(m);
  const gauss::ProbMatrix back = deserialize_probmatrix(bytes1);
  EXPECT_EQ(serialize(back), bytes1);

  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.precision(), m.precision());
  for (std::size_t v = 0; v < m.rows(); ++v) {
    for (int i = 0; i < m.precision(); ++i)
      ASSERT_EQ(back.bit(v, i), m.bit(v, i)) << v << ":" << i;
    EXPECT_TRUE(back.probability(v) == m.probability(v));
    EXPECT_TRUE(back.exact_probability(v) == m.exact_probability(v));
  }
  for (int i = 0; i < m.precision(); ++i)
    EXPECT_EQ(back.column_weight(i), m.column_weight(i));
  EXPECT_TRUE(back.deficit() == m.deficit());
  EXPECT_EQ(back.clipped_bits(), m.clipped_bits());
  EXPECT_EQ(back.params().describe(), m.params().describe());
}

TEST(ProbMatrixSerial, OddPrecisionPacksCorrectly) {
  // 51 bits: exercises the partial final byte of the packed bit rows.
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_1(51));
  const gauss::ProbMatrix back = deserialize_probmatrix(serialize(m));
  for (std::size_t v = 0; v < m.rows(); ++v)
    for (int i = 0; i < m.precision(); ++i)
      ASSERT_EQ(back.bit(v, i), m.bit(v, i)) << v << ":" << i;
}

}  // namespace
}  // namespace cgs::serial
