// The batch-first Falcon pipeline: BlockSource adapters, the batch-aware
// SamplerZ, cross-backend signature validity, SigningService determinism,
// tree caching, and multi-threaded stats aggregation.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/blocksource.h"
#include "conv/convolution.h"
#include "ct/batch_sampler.h"
#include "ct/compiled_sampler.h"
#include "ct/synthesis.h"
#include "engine/block_source.h"
#include "engine/registry.h"
#include "falcon/sign.h"
#include "falcon/signing_service.h"
#include "falcon/verify.h"
#include "prng/chacha20.h"
#include "prng/splitmix.h"

namespace cgs::falcon {
namespace {

engine::SamplerRegistry& registry() {
  // In-process memo only: these tests must not depend on (or pollute) the
  // user's on-disk cache state.
  static engine::SamplerRegistry reg({.cache_dir = "", .use_disk = false});
  return reg;
}

const KeyPair& shared_key() {
  static const KeyPair kp = [] {
    prng::ChaCha20Source rng(4242);
    return keygen(FalconParams::for_degree(64), rng);
  }();
  return kp;
}

bool sigs_equal(const Signature& a, const Signature& b) {
  return a.nonce == b.nonce && a.s1 == b.s1;
}

TEST(BlockSource, ScalarShimMatchesDirectDraws) {
  auto synth = registry().get(gauss::GaussianParams::sigma_2(64));
  ct::BufferedSampler direct(*synth);
  ct::BufferedSampler shimmed(*synth);
  prng::ChaCha20Source rng1(5), rng2(5);
  ScalarBlockSource src(shimmed, rng2);
  std::vector<std::int32_t> block(257);
  src.fill_base(block);
  for (std::int32_t v : block) EXPECT_EQ(v, direct.sample(rng1));
  EXPECT_EQ(src.preferred_block(), 1u);
}

TEST(BlockSource, EngineStreamIdenticalAcrossCompiledAndInterpreted) {
  if (!ct::CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  auto synth = registry().get(gauss::GaussianParams::sigma_2(64));
  // Both evaluators run the one 256-lane runner on the same word order, so
  // for one seed the compiled and interpreted engines are one stream —
  // backends can be swapped in production without changing a single
  // emitted sample. test_service's cross-backend differential holds the
  // same through the Gaussian service.
  const auto run = [&](engine::Backend backend) {
    engine::EngineOptions opts;
    opts.backend = backend;
    opts.num_threads = 1;
    opts.root_seed = 77;
    engine::SamplerEngine eng(synth, opts);
    std::vector<std::int32_t> out(500);
    eng.sample(out);
    return out;
  };
  EXPECT_EQ(run(engine::Backend::kCompiled), run(engine::Backend::kWide));
}

TEST(BlockSource, EngineSourceServesBaseAndWords) {
  auto synth = registry().get(gauss::GaussianParams::sigma_2(64));
  engine::EngineOptions opts;
  opts.num_threads = 1;
  engine::SamplerEngine eng(synth, opts);
  engine::EngineBlockSource src(eng, 99, 256);
  EXPECT_EQ(src.preferred_block(), 256u);
  EXPECT_TRUE(src.constant_time());
  std::vector<std::int32_t> base(512);
  src.fill_base(base);
  bool nonzero = false;
  for (std::int32_t v : base) nonzero |= v != 0;
  EXPECT_TRUE(nonzero);
  // Word stream is the deterministic ChaCha20 stream for the seed.
  std::vector<std::uint64_t> words(8);
  src.fill_words(words);
  prng::ChaCha20Source ref(99);
  for (std::uint64_t w : words) EXPECT_EQ(w, ref.next_word());
}

TEST(ChaCha, FillWordsMatchesNextWordStream) {
  // The bulk path (buffer head, whole 128-word core runs, buffer tail)
  // must be bit-identical to scalar draws, including when the two are
  // interleaved mid-block and when a fill straddles the 128-word buffer.
  // Both paths share the core; test_prng checks the core itself.
  prng::ChaCha20Source bulk(123), scalar(123);
  std::vector<std::uint64_t> got;
  got.reserve(2200);
  std::vector<std::uint64_t> buf;
  for (std::size_t len : {1u, 7u, 64u, 3u, 129u, 256u, 5u, 33u, 127u, 128u,
                          120u, 255u, 384u, 2u, 130u, 0u, 512u, 126u}) {
    buf.assign(len, 0);
    bulk.fill_words(buf);
    got.insert(got.end(), buf.begin(), buf.end());
    got.push_back(bulk.next_word());  // interleave a scalar draw
  }
  for (std::uint64_t w : got) EXPECT_EQ(w, scalar.next_word());
}

TEST(SamplerZBatch, BlockAndShimAgreeOnMoments) {
  auto synth = registry().get(gauss::GaussianParams::sigma_2(64));
  engine::EngineOptions opts;
  opts.num_threads = 1;
  engine::SamplerEngine eng(synth, opts);
  engine::EngineBlockSource src(eng, 3, 512);
  SamplerZ sz(src, 2.0);
  const double c = -2.4, sigma = 1.4;
  double sum = 0, sum_sq = 0;
  const int k = 40000;
  for (int i = 0; i < k; ++i) {
    const double z = sz.sample(c, sigma);
    sum += z;
    sum_sq += z * z;
  }
  const double mean = sum / k;
  const double var = sum_sq / k - mean * mean;
  EXPECT_NEAR(mean, c, 0.04);
  EXPECT_NEAR(var, sigma * sigma, 0.1);
  EXPECT_GT(sz.base_calls(), static_cast<std::uint64_t>(k));
  EXPECT_EQ(sz.base_calls() - static_cast<std::uint64_t>(k),
            sz.rejections());
}

TEST(SignerBatch, BlockSourceSignerVerifies) {
  const KeyPair& kp = shared_key();
  auto synth = registry().get(gauss::GaussianParams::sigma_2(128));
  engine::EngineOptions opts;
  opts.num_threads = 1;
  engine::SamplerEngine eng(synth, opts);
  engine::EngineBlockSource src(eng, 11, 512);
  Signer signer(kp, src);
  Verifier verifier(kp.h, kp.params);
  SignStats stats;
  for (int i = 0; i < 3; ++i) {
    const std::string msg = "batch message #" + std::to_string(i);
    const Signature sig = signer.sign(msg, &stats);
    EXPECT_TRUE(verifier.verify(msg, sig));
    EXPECT_FALSE(verifier.verify(msg + "!", sig));
  }
  EXPECT_GE(stats.attempts, 3u);
  EXPECT_GE(stats.base_samples, 3 * 2 * kp.params.n);
}

class ServiceBackends : public ::testing::TestWithParam<engine::Backend> {};

TEST_P(ServiceBackends, SameMessageKeySeedAllVerify) {
  if (GetParam() == engine::Backend::kCompiled &&
      !ct::CompiledKernel::is_available())
    GTEST_SKIP() << "no host compiler";
  const KeyPair& kp = shared_key();
  SigningOptions opts;
  opts.backend = GetParam();
  opts.num_threads = 2;
  opts.root_seed = 2024;
  SigningService svc(registry(), opts);
  Verifier verifier(kp.h, kp.params);
  const std::string_view msgs[] = {"cross-backend message", "another",
                                   "third"};
  const auto sigs = svc.sign_many(kp, msgs);
  ASSERT_EQ(sigs.size(), 3u);
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_TRUE(verifier.verify(msgs[i], sigs[i]))
        << engine::backend_name(svc.backend());
    EXPECT_FALSE(verifier.verify("tampered", sigs[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceBackends,
                         ::testing::Values(engine::Backend::kWide,
                                           engine::Backend::kCompiled));

TEST(Service, DeterministicForFixedSeedAndThreads) {
  const KeyPair& kp = shared_key();
  std::vector<std::string> storage;
  std::vector<std::string_view> msgs;
  for (int i = 0; i < 7; ++i)
    storage.push_back("deterministic #" + std::to_string(i));
  for (const auto& s : storage) msgs.push_back(s);

  SigningOptions opts;
  opts.backend = engine::Backend::kWide;
  opts.num_threads = 2;
  opts.root_seed = 77;
  SigningService a(registry(), opts), b(registry(), opts);
  const auto sa = a.sign_many(kp, msgs);
  const auto sb = b.sign_many(kp, msgs);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i)
    EXPECT_TRUE(sigs_equal(sa[i], sb[i])) << i;

  // Streams continue across calls: a second identical batch from both
  // services still agrees (and differs from the first batch).
  const auto sa2 = a.sign_many(kp, msgs);
  const auto sb2 = b.sign_many(kp, msgs);
  for (std::size_t i = 0; i < sa2.size(); ++i) {
    EXPECT_TRUE(sigs_equal(sa2[i], sb2[i])) << i;
    EXPECT_FALSE(sigs_equal(sa[i], sa2[i])) << i;
  }

  // A different root seed diverges.
  SigningOptions other = opts;
  other.root_seed = 78;
  SigningService c(registry(), other);
  const auto sc = c.sign_many(kp, msgs);
  bool differs = false;
  for (std::size_t i = 0; i < sc.size(); ++i)
    differs |= !sigs_equal(sa[i], sc[i]);
  EXPECT_TRUE(differs);
}

TEST(Service, ThreeSlotSignaturesPinned) {
  // Golden digest (FNV-1a over nonce and s1 bytes) of a 7-message batch
  // on three slots at N=256: message i is signed with slot i % 3's
  // streams, whichever thread runs the slice.
  prng::ChaCha20Source key_rng(2560);
  const KeyPair kp = keygen(FalconParams::for_degree(256), key_rng);
  std::vector<std::string> storage;
  for (int i = 0; i < 7; ++i) storage.push_back("slot pin #" + std::to_string(i));
  const std::vector<std::string_view> msgs(storage.begin(), storage.end());

  SigningOptions opts;
  opts.backend = engine::Backend::kWide;
  opts.num_threads = 3;
  opts.root_seed = 3256;
  SigningService svc(registry(), opts);
  const Verifier verifier(kp.h, kp.params);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const auto sigs = svc.sign_many(kp, msgs);
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_TRUE(verifier.verify(msgs[i], sigs[i])) << i;
    for (const std::uint8_t b : sigs[i].nonce) byte(b);
    for (const std::int32_t c : sigs[i].s1)
      for (int k = 0; k < 4; ++k)
        byte(static_cast<std::uint8_t>(static_cast<std::uint32_t>(c) >> (8 * k)));
  }
  EXPECT_EQ(h, 0x7809a14d29d25921ull) << std::hex << "got 0x" << h;
}

TEST(Service, TreeCachedPerKeyAndStatsAggregate) {
  const KeyPair& kp = shared_key();
  prng::ChaCha20Source rng(55);
  const KeyPair other = keygen(FalconParams::for_degree(64), rng);

  SigningOptions opts;
  opts.backend = engine::Backend::kWide;
  opts.num_threads = 3;
  SigningService svc(registry(), opts);
  EXPECT_EQ(svc.num_cached_trees(), 0u);

  const std::string_view batch[] = {"m0", "m1", "m2", "m3", "m4"};
  SignStats call_stats;
  (void)svc.sign_many(kp, batch, &call_stats);
  EXPECT_EQ(svc.num_cached_trees(), 1u);
  (void)svc.sign_many(kp, batch);
  EXPECT_EQ(svc.num_cached_trees(), 1u);  // reused, not rebuilt
  (void)svc.sign(other, "different key");
  EXPECT_EQ(svc.num_cached_trees(), 2u);

  // Per-call stats cover the whole batch; lifetime stats aggregate across
  // workers and calls without racing (counters are per-worker, summed on
  // demand).
  EXPECT_GE(call_stats.attempts, 5u);
  EXPECT_GE(call_stats.base_samples, 5 * 2 * kp.params.n);
  const SignStats total = svc.stats();
  EXPECT_GE(total.attempts, 11u);
  EXPECT_GT(total.base_samples, call_stats.base_samples);
  // Every proposal happens inside some sign_with, so the aggregated
  // SamplerZ counters reconcile exactly with the SignStats totals.
  EXPECT_EQ(svc.base_calls(), total.base_samples);
  EXPECT_LT(svc.rejections(), svc.base_calls());
}

TEST(Service, EmptyBatchIsFine) {
  SigningOptions opts;
  opts.backend = engine::Backend::kWide;
  opts.num_threads = 2;
  SigningService svc(registry(), opts);
  EXPECT_TRUE(svc.sign_many(shared_key(), {}).empty());
}

TEST(ConvolutionCombine, SingleSourceOfTruth) {
  // The scalar sampler's combine is BatchConvolver::combine_one: same
  // result as the vectorized combine, and the same loud overflow failure.
  EXPECT_EQ(conv::BatchConvolver::combine_one(3, -2, 5), 3 - 10);
  std::int32_t x1[] = {3}, x2[] = {-2}, out[1];
  conv::BatchConvolver bc(5);
  bc.combine(x1, x2, out);
  EXPECT_EQ(out[0], conv::BatchConvolver::combine_one(3, -2, 5));
  EXPECT_THROW(
      (void)conv::BatchConvolver::combine_one(0, 1 << 20, 1 << 12), Error);
}

}  // namespace
}  // namespace cgs::falcon
