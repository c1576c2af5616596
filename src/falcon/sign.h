#pragma once
// Falcon signing: hash-to-point, ffSampling over the secret basis, norm
// check, signature compression. The base Gaussian supply is injected as a
// BlockSource — this is the knob Table 1 turns: engine-backed in
// production (see falcon/signing_service.h for the multi-key,
// multi-thread front end), a ScalarBlockSource over a CDT variant in the
// Table 1 baselines.

#include <array>
#include <memory>
#include <string_view>

#include "common/blocksource.h"
#include "falcon/codec.h"
#include "falcon/ffsampling.h"
#include "falcon/hash_to_point.h"

namespace cgs::falcon {

struct Signature {
  std::array<std::uint8_t, 40> nonce{};
  IPoly s1;  // second half of the short vector; s0 is recomputed by verify
};

struct SignStats {
  std::uint64_t attempts = 0;       // ffSampling passes (norm-check retries)
  std::uint64_t samplerz_calls = 0;
  std::uint64_t base_samples = 0;   // draws from the base Gaussian sampler
};

/// Core signing step shared by Signer and SigningService: one signature
/// over a prebuilt tree. All randomness — proposals, rejection uniforms
/// and the nonce — is pulled from `sz`'s block rings; `scratch` is the
/// per-thread recursion context.
Signature sign_with(const KeyPair& kp, const FalconTree& tree,
                    std::string_view message, SamplerZ& sz,
                    FfScratch& scratch, SignStats* stats = nullptr);

class Signer {
 public:
  /// Everything (proposals, uniforms, nonces) rides `source` (not owned).
  Signer(const KeyPair& kp, BlockSource& source, double sigma_base = 2.0);

  /// Over a pre-built tree shared with other signers (the SigningService
  /// hands every worker the same cached tree).
  Signer(std::shared_ptr<const FalconTree> tree, const KeyPair& kp,
         BlockSource& source, double sigma_base = 2.0);

  Signature sign(std::string_view message, SignStats* stats = nullptr);

  const FalconTree& tree() const { return *tree_; }
  const KeyPair& key() const { return *kp_; }

 private:
  const KeyPair* kp_;
  std::shared_ptr<const FalconTree> tree_;
  SamplerZ samplerz_;
  FfScratch scratch_;
};

}  // namespace cgs::falcon
