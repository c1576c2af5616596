// Verification: the exhaustive rejection matrix for Verifier and
// VerificationService (tampered s1, tampered message, wrong public key,
// norm exactly at / just over the bound, degree mismatch, zero-length
// message), batched-vs-scalar differential equality on 1k random
// signatures, NTT-domain key caching, and the shared per-degree
// NttContext registry.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "engine/registry.h"
#include "falcon/keygen.h"
#include "falcon/signing_service.h"
#include "falcon/verification_service.h"
#include "falcon/verify.h"
#include "prng/chacha20.h"

namespace cgs::falcon {
namespace {

engine::SamplerRegistry& registry() {
  static engine::SamplerRegistry reg({.cache_dir = "", .use_disk = false});
  return reg;
}

const KeyPair& key_a() {
  static const KeyPair kp = [] {
    prng::ChaCha20Source rng(31337);
    return keygen(FalconParams::for_degree(64), rng);
  }();
  return kp;
}

const KeyPair& key_b() {
  static const KeyPair kp = [] {
    prng::ChaCha20Source rng(555);
    return keygen(FalconParams::for_degree(64), rng);
  }();
  return kp;
}

SigningService& signer() {
  static SigningService svc(registry(), {.backend = engine::Backend::kWide,
                                         .num_threads = 2,
                                         .root_seed = 9,
                                         .precision = 64});
  return svc;
}

// ----------------------------------------------------- shared NTT context ---

TEST(SharedNtt, OneImmutableContextPerDegree) {
  const auto a = shared_ntt_context(64);
  const auto b = shared_ntt_context(64);
  const auto c = shared_ntt_context(128);
  EXPECT_EQ(a.get(), b.get());  // same degree -> the same instance
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->size(), 64u);
  EXPECT_EQ(c->size(), 128u);
}

// ------------------------------------------------------- rejection matrix ---

class RejectionMatrix : public ::testing::Test {
 protected:
  void SetUp() override {
    message_ = "rejection matrix message";
    sig_ = signer().sign(key_a(), message_);
  }

  // Every case is asserted against all three paths: the scalar Verifier,
  // the service's scalar verify, and a one-element verify_many — the
  // decision must be identical everywhere.
  void expect_all(bool want, std::string_view message, const Signature& sig,
                  const KeyPair& kp) {
    const Verifier scalar(kp.h, kp.params);
    EXPECT_EQ(scalar.verify(message, sig), want);
    VerificationService svc({.num_threads = 1});
    EXPECT_EQ(svc.verify(kp.h, kp.params, message, sig), want);
    const std::string_view messages[] = {message};
    const Signature sigs[] = {sig};
    const auto verdicts = svc.verify_many(kp.h, kp.params, messages, sigs);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0] != 0, want);
  }

  std::string message_;
  Signature sig_;
};

TEST_F(RejectionMatrix, GenuineSignatureAccepted) {
  expect_all(true, message_, sig_, key_a());
}

TEST_F(RejectionMatrix, TamperedS1Rejected) {
  for (const std::size_t i : {std::size_t{0}, sig_.s1.size() / 2,
                              sig_.s1.size() - 1}) {
    Signature bent = sig_;
    bent.s1[i] += 1;
    expect_all(false, message_, bent, key_a());
  }
}

TEST_F(RejectionMatrix, TamperedMessageRejected) {
  expect_all(false, std::string(message_) + "!", sig_, key_a());
  expect_all(false, "rejection matrix messagf", sig_, key_a());
  expect_all(false, "", sig_, key_a());
}

TEST_F(RejectionMatrix, TamperedNonceRejected) {
  Signature bent = sig_;
  bent.nonce[7] ^= 1;
  expect_all(false, message_, bent, key_a());
}

TEST_F(RejectionMatrix, WrongPublicKeyRejected) {
  expect_all(false, message_, sig_, key_b());
}

TEST_F(RejectionMatrix, DegreeMismatchRejected) {
  Signature short_sig = sig_;
  short_sig.s1.resize(sig_.s1.size() / 2);
  expect_all(false, message_, short_sig, key_a());
  Signature long_sig = sig_;
  long_sig.s1.resize(sig_.s1.size() * 2, 0);
  expect_all(false, message_, long_sig, key_a());
}

TEST_F(RejectionMatrix, ZeroLengthMessageSignsAndVerifies) {
  const Signature sig = signer().sign(key_a(), "");
  expect_all(true, "", sig, key_a());
  expect_all(false, "x", sig, key_a());
}

TEST_F(RejectionMatrix, NormExactlyAtBoundAcceptedJustOverRejected) {
  // Recompute this signature's actual squared norm, then pin the params'
  // bound exactly at it (accept: the check is <=) and one below it
  // (reject) — the boundary arithmetic, not a statistical accident.
  const std::size_t n = key_a().params.n;
  const auto ntt = shared_ntt_context(n);
  const auto c = hash_to_point(sig_.nonce, message_, n);
  const auto s1h = ntt->multiply(to_mod_q_poly(sig_.s1), key_a().h);
  IPoly s0(n);
  for (std::size_t i = 0; i < n; ++i)
    s0[i] = center_mod_q((c[i] + kQ - s1h[i]) % kQ);
  const std::int64_t norm = norm_sq_pair(s0, sig_.s1);
  ASSERT_GT(norm, 0);

  KeyPair at = key_a();
  at.params.norm_bound_sq = norm;
  expect_all(true, message_, sig_, at);

  KeyPair over = key_a();
  over.params.norm_bound_sq = norm - 1;
  expect_all(false, message_, sig_, over);
}

// ------------------------------------------- batched vs scalar differential ---

TEST(VerifyDifferential, BatchedBitForBitEqualsScalarOn1kSignatures) {
  // 1k signatures at N = 64, plus a smaller corpus at the serving degree
  // N = 512, whose transforms are eight times longer.
  prng::ChaCha20Source rng(512);
  const KeyPair key_512 = keygen(FalconParams::for_degree(512), rng);
  const struct {
    const KeyPair& kp;
    std::size_t count;
  } corpora[] = {{key_a(), 1000}, {key_512, 128}};

  for (const auto& [kp, count] : corpora) {
    SCOPED_TRACE("N = " + std::to_string(kp.params.n));
    std::vector<std::string> storage;
    storage.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      storage.push_back("differential message " + std::to_string(i));
    std::vector<std::string_view> messages(storage.begin(), storage.end());
    std::vector<Signature> sigs = signer().sign_many(kp, messages);

    // Tamper a deterministic quarter of them (rotating tamper kind) so the
    // differential covers both verdicts.
    for (std::size_t i = 0; i < count; i += 4) {
      switch ((i / 4) % 3) {
        case 0: sigs[i].s1[i % sigs[i].s1.size()] += 1; break;
        case 1: storage[i] += " (tampered)"; break;
        default: sigs[i].nonce[i % sigs[i].nonce.size()] ^= 0x80; break;
      }
      messages[i] = storage[i];
    }

    const Verifier scalar(kp.h, kp.params);
    VerificationService svc({.num_threads = 3});
    const auto batched = svc.verify_many(kp.h, kp.params, messages, sigs);
    ASSERT_EQ(batched.size(), count);

    std::size_t accepted = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const bool want = scalar.verify(messages[i], sigs[i]);
      EXPECT_EQ(batched[i] != 0, want) << "index " << i;
      EXPECT_EQ(svc.verify(kp.h, kp.params, messages[i], sigs[i]), want)
          << "index " << i;
      accepted += want ? 1 : 0;
    }
    // Untampered ones all verify; tampered ones all fail.
    EXPECT_EQ(accepted, count - (count + 3) / 4);

    const VerifyStats stats = svc.stats();
    EXPECT_EQ(stats.checked, 2 * count);
    EXPECT_EQ(stats.accepted, 2 * accepted);
    EXPECT_EQ(stats.batches, 1u);
  }
}

// ------------------------------------------------------------- key caching ---

TEST(VerificationCache, NttDomainKeysCachedPerFingerprint) {
  VerificationService svc({.num_threads = 1});
  EXPECT_EQ(svc.num_cached_keys(), 0u);
  const Signature sig = signer().sign(key_a(), "cache probe");
  EXPECT_TRUE(svc.verify(key_a().h, key_a().params, "cache probe", sig));
  EXPECT_EQ(svc.num_cached_keys(), 1u);
  EXPECT_TRUE(svc.verify(key_a().h, key_a().params, "cache probe", sig));
  EXPECT_EQ(svc.num_cached_keys(), 1u);  // same key, same entry
  EXPECT_FALSE(svc.verify(key_b().h, key_b().params, "cache probe", sig));
  EXPECT_EQ(svc.num_cached_keys(), 2u);

  // Same h under a different bound is a distinct verification identity.
  KeyPair tight = key_a();
  tight.params.norm_bound_sq = 1;
  EXPECT_FALSE(svc.verify(tight.h, tight.params, "cache probe", sig));
  EXPECT_EQ(svc.num_cached_keys(), 3u);

  EXPECT_NE(public_key_fingerprint(key_a().h, key_a().params),
            public_key_fingerprint(tight.h, tight.params));
  EXPECT_NE(public_key_fingerprint(key_a().h, key_a().params),
            public_key_fingerprint(key_b().h, key_b().params));
}

}  // namespace
}  // namespace cgs::falcon
