// Falcon signing end to end with the constant-time base sampler: keygen,
// sign a message, compress the signature, verify — then the same key
// through the batch-first SigningService (engine + BlockSource pipeline),
// the paper's application scenario as a production user would run it.
// Exits nonzero on any check failure (this example doubles as a ctest
// smoke test).

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "ct/batch_sampler.h"
#include "engine/registry.h"
#include "falcon/codec.h"
#include "falcon/sign.h"
#include "falcon/signing_service.h"
#include "falcon/verify.h"
#include "prng/chacha20.h"

int main(int argc, char** argv) {
  using namespace cgs;

  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 512;
  const std::string message =
      argc > 2 ? argv[2] : "Constant-time sampling, DAC 2019";
  bool ok = true;

  prng::ChaCha20Source rng(0xFA1C0);

  std::printf("== keygen (N = %zu) ==\n", n);
  falcon::KeygenStats kstats;
  const falcon::KeyPair kp =
      falcon::keygen(falcon::FalconParams::for_degree(n), rng, &kstats);
  std::printf("resampled (f,g) %d times, NTRU failures %d\n",
              kstats.fg_resamples, kstats.ntru_failures);
  std::printf("f[0..7]: ");
  for (int i = 0; i < 8; ++i) std::printf("%d ", kp.f[static_cast<std::size_t>(i)]);
  std::printf("\nF[0..7]: ");
  for (int i = 0; i < 8; ++i) std::printf("%d ", kp.f_cap[static_cast<std::size_t>(i)]);
  std::printf("  (short: NTRUSolve + Babai reduction)\n");

  std::printf("\n== sign with the constant-time bit-sliced sampler ==\n");
  // Registry, not synthesize(): the base sampler is warm-loaded from the
  // on-disk cache after the first ever run on this machine.
  ct::BufferedSampler base(*engine::SamplerRegistry::global().get(
      gauss::GaussianParams::sigma_2(128)));
  ScalarBlockSource src(base, rng);
  falcon::Signer signer(kp, src);
  falcon::SignStats sstats;
  const falcon::Signature sig = signer.sign(message, &sstats);
  std::printf("message: \"%s\"\n", message.c_str());
  std::printf("ffSampling attempts: %llu, base Gaussian draws: %llu\n",
              static_cast<unsigned long long>(sstats.attempts),
              static_cast<unsigned long long>(sstats.base_samples));
  std::printf("s1 norm^2 = %lld (bound %lld)\n",
              static_cast<long long>(falcon::norm_sq(sig.s1)),
              static_cast<long long>(kp.params.bound_sq()));

  const auto compressed = falcon::compress_s1(sig.s1);
  std::printf("compressed signature: %zu bytes (+40-byte nonce)\n",
              compressed.size());
  const auto decompressed = falcon::decompress_s1(compressed, n);
  const bool codec_ok = decompressed && *decompressed == sig.s1;
  ok &= codec_ok;
  std::printf("codec round trip: %s\n", codec_ok ? "ok" : "FAILED");

  std::printf("\n== verify ==\n");
  const falcon::Verifier verifier(kp.h, kp.params);
  const bool genuine = verifier.verify(message, sig);
  const bool tampered = verifier.verify(message + "!", sig);
  ok &= genuine && !tampered;
  std::printf("genuine message: %s\n", genuine ? "ACCEPT" : "reject (BUG!)");
  std::printf("tampered message: %s\n",
              tampered ? "accept (BUG!)" : "REJECT");

  std::printf("\n== batched signing service ==\n");
  // The batch-first pipeline: per-key cached tree, per-worker engine
  // block sources, deterministic for a fixed (root_seed, num_threads).
  falcon::SigningOptions opts;
  opts.root_seed = 0xFA1C0;
  falcon::SigningService service(engine::SamplerRegistry::global(), opts);
  std::vector<std::string> storage;
  std::vector<std::string_view> batch;
  for (int i = 0; i < 8; ++i)
    storage.push_back(message + " #" + std::to_string(i));
  for (const auto& s : storage) batch.push_back(s);
  falcon::SignStats bstats;
  const auto sigs = service.sign_many(kp, batch, &bstats);
  int verified = 0;
  for (std::size_t i = 0; i < sigs.size(); ++i)
    verified += verifier.verify(batch[i], sigs[i]) ? 1 : 0;
  ok &= verified == static_cast<int>(sigs.size());
  std::printf("engine backend: %s, worker threads: %d\n",
              engine::backend_name(service.backend()),
              service.num_threads());
  std::printf("signed %zu messages in one batch, %d/%zu verify\n",
              sigs.size(), verified, sigs.size());
  std::printf("base draws: %llu (%.1f per signature)\n",
              static_cast<unsigned long long>(bstats.base_samples),
              static_cast<double>(bstats.base_samples) /
                  static_cast<double>(sigs.size()));

  std::printf("\n%s\n", ok ? "all checks passed" : "A CHECK FAILED");
  return ok ? 0 : 1;
}
