// Wire-format round trips for public keys, secret keys and signatures,
// including cross-codec integration: decode a key, verify a signature.

#include <gtest/gtest.h>

#include "cdt/cdt_samplers.h"
#include "falcon/keycodec.h"
#include "falcon/verify.h"
#include "prng/chacha20.h"

namespace cgs::falcon {
namespace {

const KeyPair& key() {
  static const KeyPair kp = [] {
    prng::ChaCha20Source rng(606);
    return keygen(FalconParams::for_degree(64), rng);
  }();
  return kp;
}

TEST(KeyCodec, PublicKeyRoundTrip) {
  const auto bytes = encode_public_key(key());
  // 1 header byte + ceil(64 * 14 / 8) payload bytes.
  EXPECT_EQ(bytes.size(), 1u + (64 * 14 + 7) / 8);
  const auto back = decode_public_key(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->h, key().h);
  EXPECT_EQ(back->params.n, 64u);
}

TEST(KeyCodec, PublicKeyRejectsGarbage) {
  EXPECT_FALSE(decode_public_key({}).has_value());
  EXPECT_FALSE(decode_public_key({0xff, 1, 2}).has_value());
  auto bytes = encode_public_key(key());
  bytes[0] = 0x30;  // signature tag, not a public key
  EXPECT_FALSE(decode_public_key(bytes).has_value());
  bytes = encode_public_key(key());
  bytes.pop_back();  // truncated
  EXPECT_FALSE(decode_public_key(bytes).has_value());
}

TEST(KeyCodec, SecretKeyRoundTrip) {
  const auto bytes = encode_secret_key(key());
  const auto back = decode_secret_key(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->f, key().f);
  EXPECT_EQ(back->g, key().g);
  EXPECT_EQ(back->f_cap, key().f_cap);
  EXPECT_EQ(back->g_cap, key().g_cap);
}

TEST(KeyCodec, SecretKeyRejectsWrongTag) {
  auto bytes = encode_secret_key(key());
  bytes[0] = 0x06;
  EXPECT_FALSE(decode_secret_key(bytes).has_value());
}

TEST(KeyCodec, SignatureRoundTripAndVerify) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  const cdt::CdtTable t(m);
  cdt::CdtByteScanSampler base(t);
  prng::ChaCha20Source rng(7);
  ScalarBlockSource src(base, rng);
  Signer signer(key(), src);
  const Signature sig = signer.sign("wire format");

  const auto bytes = encode_signature(sig, 64);
  const auto back = decode_signature(bytes, 64);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->nonce, sig.nonce);
  EXPECT_EQ(back->s1, sig.s1);

  // End-to-end: decode the public key and verify the decoded signature.
  const auto pk = decode_public_key(encode_public_key(key()));
  ASSERT_TRUE(pk.has_value());
  Verifier verifier(pk->h, pk->params);
  EXPECT_TRUE(verifier.verify("wire format", *back));
}

TEST(KeyCodec, SignatureSizeIsCompact) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  const cdt::CdtTable t(m);
  cdt::CdtBinarySearchSampler base(t);
  prng::ChaCha20Source rng(8);
  ScalarBlockSource src(base, rng);
  Signer signer(key(), src);
  const auto bytes = encode_signature(signer.sign("size"), 64);
  // 64 coefficients with sigma ~ 166: roughly 1.4 bytes/coeff + overheads.
  EXPECT_LT(bytes.size(), 41u + 64u * 2u);
}

TEST(KeyCodec, SignatureWrongDegreeRejected) {
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  const cdt::CdtTable t(m);
  cdt::CdtByteScanSampler base(t);
  prng::ChaCha20Source rng(9);
  ScalarBlockSource src(base, rng);
  Signer signer(key(), src);
  const auto bytes = encode_signature(signer.sign("deg"), 64);
  EXPECT_FALSE(decode_signature(bytes, 128).has_value());
}

}  // namespace
}  // namespace cgs::falcon
