#include "falcon/samplerz.h"

#include "common/check.h"

namespace cgs::falcon {

namespace {

std::size_t ring_size(const BlockSource& src) {
  const std::size_t block = src.preferred_block();
  return block < 1 ? 1 : block;
}

}  // namespace

SamplerZ::SamplerZ(BlockSource& source, double sigma_base)
    : src_(&source),
      sigma_base_(sigma_base),
      inv_2sb2_(1.0 / (2.0 * sigma_base * sigma_base)),
      base_ring_(ring_size(source)),
      word_ring_(ring_size(source)),
      base_pos_(base_ring_.size()),
      word_pos_(word_ring_.size()) {
  CGS_CHECK(sigma_base > 0);
}

std::int32_t SamplerZ::sample(double c, double sigma) {
  return sample(c, sigma, inv_two_sigma_sq(sigma));
}

}  // namespace cgs::falcon
