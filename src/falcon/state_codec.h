#pragma once
// Disk codecs for per-key offline state: the ffLDL tree a signing tenant
// needs and the NTT-domain public key a verifying tenant needs. Both are
// pure precomputations over key material, so persisting them (via
// store::KvStore) turns a post-eviction cache miss from a rebuild —
// O(n log n) FFTs for the tree, a forward NTT plus Shoup companions for
// the key — into one decode.
//
// Bit-exactness contract: every double is serialized as its IEEE-754 bit
// pattern and every integer verbatim, so decode(encode(x)) reproduces x
// bit for bit. A warm-started tree signs identically to the tree that was
// evicted; a warm-started key accepts/rejects identically. The
// round-trip is asserted in tests/test_store.cpp.
//
// Identity: tree records carry the secret (f, g) they were built from and
// key records the public h — the same collision guards the in-memory
// caches keep — so a fingerprint collision (or a stale record from a
// re-generated key) is detected on load and falls back to a rebuild.
// Frames use the standard serial container (kFalconTree / kNttKey), so
// bit rot and truncation surface as SerialError before any field parses.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "falcon/ffsampling.h"
#include "falcon/keygen.h"

namespace cgs::falcon {

/// A decoded tree plus the secret pair it was derived from (the cache's
/// collision/staleness guard: reject the record if (f, g) differ from the
/// key pair in hand).
struct TreeRecord {
  IPoly f, g;
  std::shared_ptr<const FalconTree> tree;
};

/// Serialize kp's tree as a kFalconTree frame.
std::vector<std::uint8_t> encode_tree(const KeyPair& kp,
                                      const FalconTree& tree);

/// Decode a kFalconTree frame for a key with `params`. Throws
/// serial::SerialError on any malformed, truncated or corrupted input, on
/// a record in an older tree layout, on a degree other than params.n, and
/// on a leaf width outside the record's [min, max] or outside
/// [params.sigma_min, params.sigma_max] (callers treat all of them as a
/// cache miss and rebuild). Each leaf's 1/(2 sigma'^2) is recomputed from
/// its sigma', not read.
TreeRecord decode_tree(std::span<const std::uint8_t> frame,
                       const FalconParams& params);

/// Resident bytes of a tree (flat node buffer + basis rows) — the cost a
/// BoundedCache byte budget charges for it.
std::size_t tree_footprint_bytes(const FalconTree& tree);

/// The NTT-domain verification state for one public key, exactly the
/// fields VerificationService caches per fingerprint.
struct NttKeyRecord {
  std::vector<std::uint32_t> h;          // collision guard on load
  std::vector<std::uint32_t> h_ntt;      // forward transform, bit-reversed
  std::vector<std::uint32_t> h_ntt_shoup;
  FalconParams params;
};

/// Serialize as a kNttKey frame.
std::vector<std::uint8_t> encode_ntt_key(const NttKeyRecord& rec);

/// Decode a kNttKey frame; throws serial::SerialError on bad input.
NttKeyRecord decode_ntt_key(std::span<const std::uint8_t> frame);

/// Approximate resident bytes of a cached NTT key of degree n.
std::size_t ntt_key_footprint_bytes(std::size_t n);

/// KvStore key for a tree record: "ffldl-" + 16 hex digits of the secret
/// key fingerprint.
std::string tree_state_key(std::uint64_t fingerprint);

/// KvStore key for an NTT key record: "ntt-" + 16 hex digits of the
/// public key fingerprint.
std::string ntt_state_key(std::uint64_t fingerprint);

}  // namespace cgs::falcon
