// §7 reproduction: how much of total sampling time goes to pseudorandom
// generation. The paper reports 80-85% with Keccak and ~60% with ChaCha.
// Measured by sampling with a real PRNG vs a pre-filled pool (zero-cost
// randomness): overhead = 1 - t_pool / t_prng.

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "ct/batch_sampler.h"
#include "prng/chacha20.h"
#include "prng/keccak.h"
#include "prng/splitmix.h"

namespace {

using namespace cgs;

class PoolSource final : public RandomBitSource {
 public:
  PoolSource() : words_(1 << 16) {
    prng::SplitMix64Source seed(3);
    for (auto& w : words_) w = seed.next_word();
  }
  std::uint64_t next_word() override {
    const std::uint64_t w = words_[pos_];
    pos_ = (pos_ + 1) & (words_.size() - 1);
    return w;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t pos_ = 0;
};

double seconds_for_batches(ct::BitslicedSampler& s, RandomBitSource& rng,
                           int batches) {
  std::int32_t out[64];
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < batches; ++i) (void)s.sample_batch(rng, out);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::printf("§7 reproduction: PRNG share of total sampling time\n");
  std::printf("(paper: Keccak 80-85%%, ChaCha ~60%%)\n\n");

  const gauss::ProbMatrix matrix(gauss::GaussianParams::sigma_2(128));
  ct::BitslicedSampler sampler(ct::synthesize(matrix, {}));
  const int kBatches = 20000;

  PoolSource pool;
  (void)seconds_for_batches(sampler, pool, 1000);  // warmup
  const double t_pool = seconds_for_batches(sampler, pool, kBatches);

  struct Entry {
    const char* name;
    std::unique_ptr<RandomBitSource> src;
  } entries[3] = {
      {"SHAKE-128 (Keccak)", std::make_unique<prng::ShakeSource>(1)},
      {"ChaCha20", std::make_unique<prng::ChaCha20Source>(1)},
      {"SplitMix64 (non-crypto)", std::make_unique<prng::SplitMix64Source>(1)},
  };

  std::printf("core-only time (pre-filled pool): %.3fs for %d batches\n\n",
              t_pool, kBatches);
  std::printf("%-26s %10s %14s\n", "PRNG", "total(s)", "PRNG share");
  for (auto& e : entries) {
    const double t = seconds_for_batches(sampler, *e.src, kBatches);
    std::printf("%-26s %10.3f %13.1f%%\n", e.name, t,
                100.0 * (1.0 - t_pool / t));
  }
  std::printf("\n(each batch consumes %d words = %d random bits)\n",
              sampler.words_per_batch(), sampler.words_per_batch() * 64);
  return 0;
}
