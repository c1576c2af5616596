#include "ct/batch_sampler.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "ct/lane_unpack.h"
#include "prng/isa.h"

namespace cgs::ct {

int host_kernel_lanes() {
  return prng::host_vector_isa() >= prng::VectorIsa::kAvx512vbmi ? 512 : 256;
}

template <typename Word>
void unpack_batch(const std::uint64_t* planes, int m,
                  const std::uint64_t* signs, std::int32_t* out) {
  constexpr int kGroups = sizeof(Word) / sizeof(std::uint64_t);
  if (m > 7) {
    for (int g = 0; g < kGroups; ++g)
      for (int lane = 0; lane < 64; ++lane) {
        std::int32_t v = 0;
        for (int k = 0; k < m; ++k)
          v |= static_cast<std::int32_t>(
                   (planes[kGroups * k + g] >> lane) & 1u)
               << k;
        // Branch-free sign application: negate iff the sign bit is set.
        const std::int32_t s = -static_cast<std::int32_t>((signs[g] >> lane) & 1u);
        out[64 * g + lane] = (v ^ s) - s;
      }
    return;
  }
  Word plane[7], sign;
  std::memcpy(plane, planes, static_cast<std::size_t>(m) * sizeof(Word));
  std::memcpy(&sign, signs, sizeof sign);
  typename ByteLanes<sizeof(Word)>::type lanes[8];
  spread_bytes<Word>(plane, m, sign, lanes);
  std::int8_t bytes[sizeof lanes];
  std::memcpy(bytes, lanes, sizeof lanes);
  for (int g = 0; g < kGroups; ++g)
    for (int c = 0; c < 8; ++c)
      for (int j = 0; j < 8; ++j)
        out[64 * g + 8 * c + j] = bytes[sizeof(Word) * j + 8 * g + c];
}

template void unpack_batch<std::uint64_t>(const std::uint64_t*, int,
                                          const std::uint64_t*, std::int32_t*);
template void unpack_batch<Word256>(const std::uint64_t*, int,
                                    const std::uint64_t*, std::int32_t*);
template void unpack_batch<Word512>(const std::uint64_t*, int,
                                    const std::uint64_t*, std::int32_t*);

#if defined(__x86_64__)
[[gnu::target("avx512f,avx512bw,avx512vbmi")]] void unpack_batch_avx512(
    const std::uint64_t* planes, int m, const std::uint64_t* signs,
    std::int32_t* out) {
  switch (m) {
    case 1: return unpack_in_register<1>(planes, signs, out);
    case 2: return unpack_in_register<2>(planes, signs, out);
    case 3: return unpack_in_register<3>(planes, signs, out);
    case 4: return unpack_in_register<4>(planes, signs, out);
    case 5: return unpack_in_register<5>(planes, signs, out);
    case 6: return unpack_in_register<6>(planes, signs, out);
    case 7: return unpack_in_register<7>(planes, signs, out);
    default: return unpack_batch<Word512>(planes, m, signs, out);
  }
}
#endif

template <typename Word>
auto BatchSampler<Word>::select_unpack() -> Unpack {
#if defined(__x86_64__)
  if constexpr (kGroups == 8)
    if (prng::host_vector_isa() >= prng::VectorIsa::kAvx512vbmi)
      return unpack_batch_avx512;
#endif
  return unpack_batch<Word>;
}

template <typename Word>
BatchSampler<Word>::BatchSampler(SynthesizedSampler synth)
    : synth_(std::move(synth)),
      in_(kGroups * static_cast<std::size_t>(synth_.precision + 1)),
      out_(kGroups * synth_.netlist.outputs().size()),
      draw_(kUnits > 1 ? in_.size() : 0),
      scratch_(synth_.netlist.nodes().size() +
               static_cast<std::size_t>(synth_.precision) +
               synth_.netlist.outputs().size()) {
  CGS_CHECK(synth_.netlist.num_inputs() == synth_.precision);
}

template <typename Word>
BatchSampler<Word>::BatchSampler(SynthesizedSampler synth,
                                 std::shared_ptr<const CompiledKernel> kernel)
    : synth_(std::move(synth)),
      kernel_(std::move(kernel)),
      in_(kGroups * static_cast<std::size_t>(synth_.precision + 1)),
      out_(kGroups * synth_.netlist.outputs().size()),
      draw_(kUnits > 1 ? in_.size() : 0) {
  CGS_CHECK_MSG(kernel_ != nullptr, "null shared kernel");
  CGS_CHECK_MSG(kernel_->lanes() == kBatch,
                "kernel has a " << kernel_->lanes() << "-lane entry point, not "
                                << kBatch);
  fn_ = kernel_->fn();
  // A kernel built from a different netlist would read/write past the
  // buffers sized above.
  CGS_CHECK_MSG(kernel_->num_inputs() ==
                        static_cast<std::size_t>(synth_.precision) &&
                    kGroups * kernel_->num_outputs() == out_.size(),
                "shared kernel dimensions disagree with sampler netlist");
}

template <typename Word>
void BatchSampler<Word>::eval() {
  if (fn_) {
    fn_(in_.data(), out_.data());
    return;
  }
  // The interpreter works on Word values: copy the flat words in and out
  // (a copy, not a pointer cast, so nothing is read through another type).
  Word* scratch = scratch_.data();
  Word* in = scratch + synth_.netlist.nodes().size();
  Word* out = in + synth_.precision;
  std::memcpy(in, in_.data(), sizeof(Word) * synth_.precision);
  synth_.netlist.eval(in, out, scratch);
  std::memcpy(out_.data(), out, out_.size() * sizeof(std::uint64_t));
}

template <typename Word>
auto BatchSampler<Word>::run(RandomBitSource& rng, bool with_signs,
                             std::int32_t* out, int units) -> Mask {
  // The draw, unit by unit: kUnitGroups words per precision bit, then (with
  // signs) kUnitGroups sign words. One unit per pass is already the
  // kernel's input layout, signs trailing; a wider word copies unit u into
  // groups [u * kUnitGroups, (u + 1) * kUnitGroups) of every input word.
  // Lanes of units not drawn keep stale inputs and are marked invalid.
  const auto p = static_cast<std::size_t>(synth_.precision);
  const std::size_t stride = kUnitGroups * (p + (with_signs ? 1 : 0));
  std::uint64_t* draw = kUnits == 1 ? in_.data() : draw_.data();
  rng.fill_words({draw, static_cast<std::size_t>(units) * stride});
  std::uint64_t signs[kGroups] = {};
  for (int u = 0; u < units; ++u) {
    const std::uint64_t* unit = draw + static_cast<std::size_t>(u) * stride;
    if constexpr (kUnits > 1)
      for (std::size_t k = 0; k < p; ++k)
        std::memcpy(&in_[kGroups * k + kUnitGroups * u],
                    unit + kUnitGroups * k,
                    kUnitGroups * sizeof(std::uint64_t));
    if (with_signs)
      std::memcpy(&signs[kUnitGroups * u], unit + kUnitGroups * p,
                  kUnitGroups * sizeof(std::uint64_t));
  }
  eval();
  const int m = synth_.num_output_bits;
  unpack_(out_.data(), m, signs, out);
  Mask valid;
  valid.fill(~std::uint64_t(0));
  if (synth_.has_valid_bit)
    std::memcpy(valid.data(), out_.data() + kGroups * static_cast<std::size_t>(m),
                sizeof valid);
  std::fill(valid.begin() + kUnitGroups * units, valid.end(), 0);
  return valid;
}

template <typename Word>
auto BatchSampler<Word>::sample_magnitudes(RandomBitSource& rng,
                                           std::span<std::uint32_t> out)
    -> Mask {
  CGS_CHECK(out.size() >= static_cast<std::size_t>(kBatch));
  // Magnitudes are non-negative, and int32/uint32 may alias.
  return run(rng, false, reinterpret_cast<std::int32_t*>(out.data()));
}

template <typename Word>
auto BatchSampler<Word>::sample_batch(RandomBitSource& rng,
                                      std::span<std::int32_t> out) -> Mask {
  CGS_CHECK(out.size() >= static_cast<std::size_t>(kBatch));
  return run(rng, true, out.data());
}

template <typename Word>
void BatchSampler<Word>::fill(RandomBitSource& rng,
                              std::span<std::int32_t> out) {
  // Invalid lanes (a DDG restart; ~never at cryptographic precision) are
  // dropped. At any real precision P(all lanes invalid) is astronomically
  // small, so consecutive empty batches mean a pathological netlist — e.g.
  // a crafted cache file whose valid bit is never true, which passes every
  // static shape check. Fail loudly rather than spin forever.
  constexpr int kMaxEmptyBatches = 1000;
  int empty_streak = 0;
  std::size_t pos = 0;
  Mask all_valid;
  all_valid.fill(~std::uint64_t(0));
  std::int32_t tail[kBatch];
  while (pos < out.size()) {
    const std::size_t before = pos;
    const std::size_t want = out.size() - pos;
    // Only the units the request still needs: the next unit is drawn
    // exactly when a one-unit runner would draw it, so the stream does not
    // depend on the width.
    const int units = static_cast<int>(std::min<std::size_t>(
        kUnits, (want + kUnitLanes - 1) / kUnitLanes));
    // Straight into `out` while a whole batch fits; compaction then moves
    // lanes down only, never past one not yet read.
    std::int32_t* batch =
        want >= static_cast<std::size_t>(kBatch) ? &out[pos] : tail;
    const Mask valid = run(rng, true, batch, units);
    if (batch != tail && valid == all_valid)
      pos += kBatch;
    else
      for (int lane = 0; lane < kBatch && pos < out.size(); ++lane)
        if ((valid[lane / 64] >> (lane % 64)) & 1u) out[pos++] = batch[lane];
    empty_streak = pos == before ? empty_streak + 1 : 0;
    CGS_CHECK_MSG(empty_streak < kMaxEmptyBatches,
                  "sampler produced no valid lanes for "
                      << kMaxEmptyBatches << " consecutive batches");
  }
}

template class BatchSampler<std::uint64_t>;
template class BatchSampler<Word256>;
template class BatchSampler<Word512>;

std::int32_t BufferedSampler::sample(RandomBitSource& rng) {
  if (pos_ == buf_.size()) {
    core_.fill(rng, buf_);
    pos_ = 0;
  }
  return buf_[pos_++];
}

std::uint32_t BufferedSampler::sample_magnitude(RandomBitSource& rng) {
  const std::int32_t s = sample(rng);
  return static_cast<std::uint32_t>(s < 0 ? -s : s);
}

}  // namespace cgs::ct
