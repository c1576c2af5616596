#include "ct/compiled_sampler.h"

#include <dlfcn.h>

#include <array>

#include "common/check.h"
#include "ct/kernel_cache.h"

namespace cgs::ct {

CompiledKernel::CompiledKernel(std::shared_ptr<void> object,
                               std::size_t num_inputs,
                               std::size_t num_outputs)
    : object_(std::move(object)),
      num_inputs_(num_inputs),
      num_outputs_(num_outputs) {
  CGS_CHECK_MSG(object_ != nullptr, "kernel: null object");
  fn_ = reinterpret_cast<Fn>(dlsym(object_.get(), "cgs_kernel"));
  CGS_CHECK_MSG(fn_ != nullptr, "kernel symbol missing");
  // Absent only if the host compiler rejects vector extensions — the
  // scalar form still serves, callers check has_wide().
  fn_wide_ = reinterpret_cast<Fn>(dlsym(object_.get(), "cgs_kernel_w4"));
}

void CompiledKernel::eval(std::span<const std::uint64_t> in,
                          std::span<std::uint64_t> out) const {
  CGS_DCHECK(in.size() == num_inputs_ && out.size() == num_outputs_);
  fn_(in.data(), out.data());
}

void CompiledKernel::eval_wide(std::span<const std::uint64_t> in,
                               std::span<std::uint64_t> out) const {
  CGS_CHECK_MSG(fn_wide_ != nullptr, "kernel has no wide form");
  CGS_DCHECK(in.size() == 4 * num_inputs_ && out.size() == 4 * num_outputs_);
  fn_wide_(in.data(), out.data());
}

CompiledBitslicedSampler::CompiledBitslicedSampler(SynthesizedSampler synth)
    : synth_(std::move(synth)),
      kernel_(load_or_compile_kernel(KernelSource(synth_)).kernel),
      in_(static_cast<std::size_t>(synth_.precision)),
      out_words_(synth_.netlist.outputs().size()) {}

CompiledBitslicedSampler::CompiledBitslicedSampler(
    SynthesizedSampler synth, std::shared_ptr<const CompiledKernel> kernel)
    : synth_(std::move(synth)),
      kernel_(std::move(kernel)),
      in_(static_cast<std::size_t>(synth_.precision)),
      out_words_(synth_.netlist.outputs().size()) {
  CGS_CHECK_MSG(kernel_ != nullptr, "null shared kernel");
  // A kernel built from a different netlist would read/write past the
  // buffers sized above (eval only DCHECKs, compiled out in release).
  CGS_CHECK_MSG(kernel_->num_inputs() == in_.size() &&
                    kernel_->num_outputs() == out_words_.size(),
                "shared kernel dimensions disagree with sampler netlist");
}

std::uint64_t CompiledBitslicedSampler::sample_magnitudes(
    RandomBitSource& rng, std::span<std::uint32_t> out) {
  CGS_CHECK(out.size() >= kBatch);
  rng.fill_words(in_);
  kernel_->eval(in_, out_words_);
  const int m = synth_.num_output_bits;
  for (int lane = 0; lane < kBatch; ++lane) {
    std::uint32_t v = 0;
    for (int iota = 0; iota < m; ++iota)
      v |= static_cast<std::uint32_t>(
               (out_words_[static_cast<std::size_t>(iota)] >> lane) & 1u)
           << iota;
    out[static_cast<std::size_t>(lane)] = v;
  }
  return synth_.has_valid_bit ? out_words_[static_cast<std::size_t>(m)]
                              : ~std::uint64_t(0);
}

std::uint64_t CompiledBitslicedSampler::sample_batch(
    RandomBitSource& rng, std::span<std::int32_t> out) {
  std::uint32_t mags[kBatch];
  const std::uint64_t valid = sample_magnitudes(rng, mags);
  const std::uint64_t signs = rng.next_word();
  for (int lane = 0; lane < kBatch; ++lane) {
    const auto mag = static_cast<std::int32_t>(mags[lane]);
    const std::int32_t s = -static_cast<std::int32_t>((signs >> lane) & 1u);
    out[static_cast<std::size_t>(lane)] = (mag ^ s) - s;
  }
  return valid;
}

WideCompiledSampler::WideCompiledSampler(
    SynthesizedSampler synth, std::shared_ptr<const CompiledKernel> kernel)
    : synth_(std::move(synth)),
      kernel_(std::move(kernel)),
      in_(4 * static_cast<std::size_t>(synth_.precision)),
      out_words_(4 * synth_.netlist.outputs().size()) {
  CGS_CHECK_MSG(kernel_ != nullptr && kernel_->has_wide(),
                "WideCompiledSampler needs a kernel with the wide form");
  CGS_CHECK_MSG(kernel_->num_inputs() * 4 == in_.size() &&
                    kernel_->num_outputs() * 4 == out_words_.size(),
                "shared kernel dimensions disagree with sampler netlist");
}

namespace {

// kSpread[b] holds the 8 bits of byte b spread one-per-byte (bit i ->
// byte i, value 0 or 1): the lane unpack becomes m table lookups per 8
// lanes instead of m shift/mask/or chains per lane.
constexpr std::array<std::uint64_t, 256> make_spread_table() {
  std::array<std::uint64_t, 256> t{};
  for (int b = 0; b < 256; ++b) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      if ((b >> i) & 1) v |= std::uint64_t{1} << (8 * i);
    t[static_cast<std::size_t>(b)] = v;
  }
  return t;
}
constexpr std::array<std::uint64_t, 256> kSpread = make_spread_table();

}  // namespace

void WideCompiledSampler::sample_magnitudes(
    RandomBitSource& rng, std::span<std::uint32_t> out,
    std::span<std::uint64_t> valid_mask) {
  CGS_CHECK(out.size() >= kBatch && valid_mask.size() >= 4);
  rng.fill_words(in_);
  kernel_->eval_wide(in_, out_words_);
  const int m = synth_.num_output_bits;
  for (int group = 0; group < 4; ++group) {
    if (m <= 8) {
      // Byte-parallel transpose: magnitudes fit a byte, so 8 lanes at a
      // time accumulate as the 8 bytes of one word.
      for (int chunk = 0; chunk < 8; ++chunk) {
        std::uint64_t acc = 0;
        for (int iota = 0; iota < m; ++iota)
          acc |= kSpread[(out_words_[static_cast<std::size_t>(4 * iota +
                                                              group)] >>
                          (8 * chunk)) &
                         0xff]
                 << iota;
        for (int j = 0; j < 8; ++j)
          out[static_cast<std::size_t>(64 * group + 8 * chunk + j)] =
              static_cast<std::uint32_t>((acc >> (8 * j)) & 0xff);
      }
    } else {
      for (int lane = 0; lane < 64; ++lane) {
        std::uint32_t v = 0;
        for (int iota = 0; iota < m; ++iota)
          v |= static_cast<std::uint32_t>(
                   (out_words_[static_cast<std::size_t>(4 * iota + group)] >>
                    lane) &
                   1u)
               << iota;
        out[static_cast<std::size_t>(64 * group + lane)] = v;
      }
    }
    valid_mask[static_cast<std::size_t>(group)] =
        synth_.has_valid_bit
            ? out_words_[static_cast<std::size_t>(4 * m + group)]
            : ~std::uint64_t(0);
  }
}

void WideCompiledSampler::sample_batch(RandomBitSource& rng,
                                       std::span<std::int32_t> out,
                                       std::span<std::uint64_t> valid_mask) {
  std::uint32_t mags[kBatch];
  sample_magnitudes(rng, mags, valid_mask);
  for (int group = 0; group < 4; ++group) {
    const std::uint64_t signs = rng.next_word();
    for (int lane = 0; lane < 64; ++lane) {
      const auto mag = static_cast<std::int32_t>(mags[64 * group + lane]);
      const std::int32_t s = -static_cast<std::int32_t>((signs >> lane) & 1u);
      out[static_cast<std::size_t>(64 * group + lane)] = (mag ^ s) - s;
    }
  }
}

std::int32_t BufferedCompiledSampler::sample(RandomBitSource& rng) {
  while (pos_ >= buf_.size()) {
    buf_.clear();
    std::int32_t batch[CompiledBitslicedSampler::kBatch];
    const std::uint64_t valid = core_.sample_batch(rng, batch);
    for (int lane = 0; lane < CompiledBitslicedSampler::kBatch; ++lane)
      if ((valid >> lane) & 1u) buf_.push_back(batch[lane]);
    pos_ = 0;
  }
  return buf_[pos_++];
}

std::uint32_t BufferedCompiledSampler::sample_magnitude(RandomBitSource& rng) {
  const std::int32_t s = sample(rng);
  return static_cast<std::uint32_t>(s < 0 ? -s : s);
}

}  // namespace cgs::ct
