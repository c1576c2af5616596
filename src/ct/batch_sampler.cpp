#include "ct/batch_sampler.h"

#include <cstring>

#include "common/check.h"

namespace cgs::ct {

namespace {

/// The signed bytes of an N-byte lane word, for byte-wise arithmetic.
template <std::size_t N>
struct ByteLanes {
  typedef std::int8_t type __attribute__((vector_size(N)));
};

}  // namespace

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
  using Bytes = typename ByteLanes<sizeof(Word)>::type;
  constexpr std::uint64_t kLow = 0x0101010101010101ull;
  Word plane[7], sign;
  std::memcpy(plane, planes, static_cast<std::size_t>(m) * sizeof(Word));
  std::memcpy(&sign, signs, sizeof sign);
  // Byte c of group g of lanes[j] is lane 64g + 8c + j: (plane >> j) & kLow
  // drops lane 8c + j's bit into bit 0 of byte c, for all eight c at once.
  Bytes lanes[8];
  for (int j = 0; j < 8; ++j) {
    Word acc{};
    for (int k = 0; k < m; ++k) acc |= ((plane[k] >> j) & kLow) << k;
    const Bytes neg = -(Bytes)((sign >> j) & kLow);
    lanes[j] = ((Bytes)acc ^ neg) - neg;
  }
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
auto BatchSampler<Word>::run(RandomBitSource& rng, bool with_signs,
                             std::int32_t* out) -> Mask {
  rng.fill_words(in_);
  eval();
  std::uint64_t signs[kGroups] = {};
  if (with_signs)
    for (std::uint64_t& s : signs) s = rng.next_word();
  const int m = synth_.num_output_bits;
  unpack_batch<Word>(out_.data(), m, signs, out);
  Mask valid;
  valid.fill(~std::uint64_t(0));
  if (synth_.has_valid_bit)
    std::memcpy(valid.data(), out_.data() + kGroups * static_cast<std::size_t>(m),
                sizeof valid);
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
    // Straight into `out` while a whole batch fits; compaction then moves
    // lanes down only, never past one not yet read.
    std::int32_t* batch =
        out.size() - pos >= static_cast<std::size_t>(kBatch) ? &out[pos] : tail;
    const Mask valid = run(rng, true, batch);
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
