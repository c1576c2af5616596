#pragma once
// The Alg.1 reference sampler behind the common IntSampler interface (the
// bit-sliced samplers' adapter is ct::BufferedSampler, ct/batch_sampler.h).

#include "common/sampler.h"
#include "ddg/kysampler.h"

namespace cgs::ct {

/// The column-scanning Knuth-Yao sampler (Alg. 1) as an IntSampler. Not
/// constant time — it is the correctness oracle and a baseline.
class ReferenceKySampler final : public IntSampler {
 public:
  explicit ReferenceKySampler(const gauss::ProbMatrix& matrix)
      : sampler_(matrix) {}

  std::int32_t sample(RandomBitSource& rng) override {
    return sampler_.sample(rng);
  }
  std::uint32_t sample_magnitude(RandomBitSource& rng) override {
    return sampler_.sample_magnitude(rng);
  }
  const char* name() const override { return "knuth-yao-reference"; }
  bool constant_time() const override { return false; }

 private:
  ddg::KnuthYaoSampler sampler_;
};

}  // namespace cgs::ct
