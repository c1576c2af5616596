#include "ct/batch_sampler.h"

#include <cstring>

#include "common/check.h"

namespace cgs::ct {

void unpack_lanes(const std::uint64_t* planes, std::size_t stride, int m,
                  std::uint32_t* out) {
  if (m <= 8) {
    for (int chunk = 0; chunk < 8; ++chunk) {
      std::uint64_t acc = 0;
      for (int k = 0; k < m; ++k)
        acc |= spread_byte((planes[static_cast<std::size_t>(k) * stride] >>
                            (8 * chunk)) &
                           0xff)
               << k;
      for (int j = 0; j < 8; ++j)
        out[8 * chunk + j] =
            static_cast<std::uint32_t>((acc >> (8 * j)) & 0xff);
    }
    return;
  }
  for (int lane = 0; lane < 64; ++lane) {
    std::uint32_t v = 0;
    for (int k = 0; k < m; ++k)
      v |= static_cast<std::uint32_t>(
               (planes[static_cast<std::size_t>(k) * stride] >> lane) & 1u)
           << k;
    out[lane] = v;
  }
}

template <typename Word>
BatchSampler<Word>::BatchSampler(SynthesizedSampler synth)
    : synth_(std::move(synth)),
      in_(kGroups * static_cast<std::size_t>(synth_.precision)),
      out_(kGroups * synth_.netlist.outputs().size()),
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
      in_(kGroups * static_cast<std::size_t>(synth_.precision)),
      out_(kGroups * synth_.netlist.outputs().size()) {
  CGS_CHECK_MSG(kernel_ != nullptr, "null shared kernel");
  fn_ = kernel_->entry(kBatch);
  CGS_CHECK_MSG(fn_ != nullptr, "kernel has no " << kBatch << "-lane form");
  // A kernel built from a different netlist would read/write past the
  // buffers sized above.
  CGS_CHECK_MSG(kGroups * kernel_->num_inputs() == in_.size() &&
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
  std::memcpy(in, in_.data(), in_.size() * sizeof(std::uint64_t));
  synth_.netlist.eval(in, out, scratch);
  std::memcpy(out_.data(), out, out_.size() * sizeof(std::uint64_t));
}

template <typename Word>
auto BatchSampler<Word>::sample_magnitudes(RandomBitSource& rng,
                                           std::span<std::uint32_t> out)
    -> Mask {
  CGS_CHECK(out.size() >= static_cast<std::size_t>(kBatch));
  rng.fill_words(in_);
  eval();

  const std::uint64_t* words = out_.data();
  const int m = synth_.num_output_bits;
  Mask valid;
  for (std::size_t g = 0; g < kGroups; ++g) {
    unpack_lanes(words + g, kGroups, m, out.data() + 64 * g);
    valid[g] = synth_.has_valid_bit
                   ? words[kGroups * static_cast<std::size_t>(m) + g]
                   : ~std::uint64_t(0);
  }
  return valid;
}

template <typename Word>
auto BatchSampler<Word>::sample_batch(RandomBitSource& rng,
                                      std::span<std::int32_t> out) -> Mask {
  CGS_CHECK(out.size() >= static_cast<std::size_t>(kBatch));
  std::uint32_t mags[kBatch];
  const Mask valid = sample_magnitudes(rng, mags);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::uint64_t signs = rng.next_word();
    for (std::size_t lane = 0; lane < 64; ++lane) {
      const auto mag = static_cast<std::int32_t>(mags[64 * g + lane]);
      // Branch-free sign application: negate iff the sign bit is set.
      const std::int32_t s = -static_cast<std::int32_t>((signs >> lane) & 1u);
      out[64 * g + lane] = (mag ^ s) - s;
    }
  }
  return valid;
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
  std::int32_t batch[kBatch];
  while (pos < out.size()) {
    const std::size_t before = pos;
    const Mask valid = sample_batch(rng, batch);
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
