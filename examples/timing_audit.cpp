// dudect-style timing audit of every sampler in the library — the paper's
// §5.2 validation ("we used the tool dudect to affirm the constant running
// time"). Fixed-vs-random input classes, Welch t-test on cycles, |t| > 4.5
// flags a leak.

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "cdt/cdt_samplers.h"
#include "ct/batch_sampler.h"
#include "prng/splitmix.h"
#include "stats/dudect.h"

namespace {

using namespace cgs;

// Serves pre-generated words; per-call cost is class-independent, so the
// measurement isolates the sampler computation (dudect methodology).
class ArraySource final : public RandomBitSource {
 public:
  void load(const std::uint64_t* words, std::size_t count) {
    words_ = words;
    count_ = count;
    pos_ = 0;
  }
  std::uint64_t next_word() override {
    const std::uint64_t w = words_[pos_];
    pos_ = (pos_ + 1) % count_;
    return w;
  }

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t count_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t measurements =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;

  const gauss::ProbMatrix matrix(gauss::GaussianParams::sigma_2(128));
  const cdt::CdtTable table(matrix);

  std::array<std::uint64_t, 512> random_words{};
  std::array<std::uint64_t, 512> zero_words{};
  prng::SplitMix64Source seed(99);
  for (auto& w : random_words) w = seed.next_word();

  ArraySource src;
  auto source_for = [&](int cls) -> RandomBitSource& {
    src.load(cls ? random_words.data() : zero_words.data(),
             random_words.size());
    return src;
  };

  std::printf("dudect timing audit: %zu measurements per sampler\n", measurements);
  std::printf("class 0: all-zero input bits, class 1: random input bits\n");
  std::printf("|t| > 4.5 => data-dependent timing (LEAKY)\n\n");

  struct Entry {
    const char* label;
    std::unique_ptr<IntSampler> sampler;
  };
  std::vector<Entry> entries;
  entries.push_back({"cdt-byte-scan   (expect LEAKY)",
                     std::make_unique<cdt::CdtByteScanSampler>(table)});
  entries.push_back({"cdt-binary-search (expect LEAKY-ish)",
                     std::make_unique<cdt::CdtBinarySearchSampler>(table)});
  entries.push_back({"cdt-linear-ct   (expect ok)",
                     std::make_unique<cdt::CdtLinearCtSampler>(table)});

  for (auto& e : entries) {
    const auto r = stats::dudect(
        [&](int cls) { (void)e.sampler->sample_magnitude(source_for(cls)); },
        {.measurements = measurements, .warmup = 1000,
         .keep_percentile = 0.9});
    std::printf("%-38s %s\n", e.label, r.describe().c_str());
  }

  // The bit-sliced batch sampler (this work).
  ct::BitslicedSampler bitsliced(ct::synthesize(matrix, {}));
  std::uint32_t out[64];
  const auto r = stats::dudect(
      [&](int cls) { (void)bitsliced.sample_magnitudes(source_for(cls), out); },
      {.measurements = measurements / 4, .warmup = 500,
       .keep_percentile = 0.9});
  std::printf("%-38s %s\n", "bitsliced-ct (this work, expect ok)",
              r.describe().c_str());
  return 0;
}
