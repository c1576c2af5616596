#pragma once
// VerificationService: the batch-first Falcon verification front end,
// mirroring SigningService one protocol step later. Verification needs only
// public material, so the service caches, per public-key fingerprint, the
// key already forward-transformed into the NTT domain: a scalar Verifier
// pays three size-n transforms per verify (NTT(s1), NTT(h), inverse);
// a cached key drops that to two, and the per-degree NttContext itself is
// the shared immutable instance from falcon/ntt.h, so a multi-tenant
// verify lane pays the twiddle setup exactly once per degree.
//
// verify_many() amortizes further across the batch: one scratch buffer per
// slice reused for every c - s1 h recomputation (no per-item allocation of
// the product or of s0 — centering, the norm accumulation and the bound
// check are fused into one pass over the coefficients), hash-to-point done
// exactly once per message, and the batch split into contiguous slices
// that run as one batch on the process-wide executor (common/task_crew.h;
// items are independent, results land in request order). Batched and
// scalar paths run the identical arithmetic, so accept/reject decisions are
// bit-for-bit the same as Verifier::verify — tests/test_verify.cpp holds
// the two differentially equal.
//
// Thread-safety: verify/verify_many may be called concurrently; the key
// cache is guarded, verification itself touches only immutable key state
// and per-call scratch.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "falcon/sign.h"
#include "obs/metric.h"
#include "store/bounded_cache.h"
#include "store/kvstore.h"

namespace cgs::falcon {

/// Stable 64-bit fingerprint of public verification material (degree plus
/// h) — what the verify lane shards by and the key cache keys on. As with
/// key_fingerprint, collision handling is the cache's job (it stores the
/// actual h and checks), not the fingerprint's.
std::uint64_t public_key_fingerprint(std::span<const std::uint32_t> h,
                                     const FalconParams& params);

struct VerifyStats {
  std::uint64_t checked = 0;   // signatures examined
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;   // verify_many calls
};

struct VerificationOptions {
  /// verify_many slices at most (0 -> hardware concurrency). A batch gets
  /// one slice per 8 items, so small batches stay on the calling thread.
  int num_threads = 0;
  /// Budget for the NTT-domain key cache. Default unbounded — the legacy
  /// every-key-resident behavior.
  store::CacheBudget key_cache;
  /// Optional persistent key-state store (not owned; must outlive the
  /// service). When set, transformed keys are written through and an
  /// evicted key warm-starts from a decode instead of a forward NTT +
  /// Shoup precompute.
  store::KvStore* key_state = nullptr;
};

class VerificationService {
 public:
  explicit VerificationService(VerificationOptions options = {});

  /// Verify one signature against (h, params); the NTT-domain key is
  /// cached under its fingerprint on first use. Bit-for-bit the same
  /// decision as Verifier(h, params).verify(message, sig).
  bool verify(const std::vector<std::uint32_t>& h, const FalconParams& params,
              std::string_view message, const Signature& sig);

  /// Verify a batch under one key; out[i] == 1 iff (messages[i], sigs[i])
  /// verifies. messages and sigs must be the same length.
  std::vector<std::uint8_t> verify_many(
      const std::vector<std::uint32_t>& h, const FalconParams& params,
      std::span<const std::string_view> messages,
      std::span<const Signature> sigs);

  /// Number of distinct public keys cached in NTT form.
  std::size_t num_cached_keys() const;

  /// NTT-domain key cache hit/miss/size totals (a miss is a forward
  /// transform plus Shoup precomputation).
  obs::CacheStats key_cache_stats() const;

  /// Lifetime totals (reflects completed calls).
  VerifyStats stats() const;

  const VerificationOptions& options() const { return options_; }

 private:
  struct KeyEntry {
    std::vector<std::uint32_t> h;      // fingerprint collision guard
    std::vector<std::uint32_t> h_ntt;  // forward-transformed once
    std::vector<std::uint32_t> h_ntt_shoup;  // Shoup companions of h_ntt
    FalconParams params;
    std::shared_ptr<const NttContext> ntt;  // shared per-degree context
  };

  using KeyCache = store::BoundedCache<std::uint64_t, KeyEntry>;

  /// The (pinned) NTT-domain entry for (h, params): memory hit, KvStore
  /// warm start, or forward transform. Callers hold the pin for the whole
  /// verify/verify_many call, so a key in use is never evicted mid-batch.
  KeyCache::Pinned entry_for(const std::vector<std::uint32_t>& h,
                             const FalconParams& params);

  /// The fused scalar kernel both paths run: c - s1 h via the cached
  /// NTT-domain key, centering + norm accumulation in one pass. `scratch`
  /// is caller-owned working memory reused across a batch.
  static bool verify_one(const KeyEntry& key, std::string_view message,
                         const Signature& sig,
                         std::vector<std::uint32_t>& scratch);
  /// verify_one with the hash-to-point already computed (the batch path
  /// hashes four messages per vectorized Keccak pass).
  static bool verify_with_c(const KeyEntry& key,
                            const std::vector<std::uint32_t>& c,
                            const Signature& sig,
                            std::vector<std::uint32_t>& scratch);

  VerificationOptions options_;
  KeyCache keys_;
  mutable std::mutex stats_mu_;
  VerifyStats stats_;
};

}  // namespace cgs::falcon
