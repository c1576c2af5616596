#pragma once
// The Falcon tree (ffLDL* decomposition of the secret basis Gram matrix in
// packed FFT representation) and fast-Fourier nearest-plane sampling over
// it.
//
// The tree is one exactly-sized buffer of doubles in ffLDL_fft recursion
// order, as in the Falcon specification (falcon-sign.info):
//   node over ring size m >= 2:  l10 (m/2 packed values = m doubles,
//                                interleaved re/im), then the subtree of
//                                d00, then the subtree of d11;
//   leaf (m == 1):               sigma' and 1/(2 sigma'^2).
// A subtree over m takes tree_size(m) = m (log2 m + 2) doubles. The m == 1
// level needs no l10: a self-adjoint d over ring size 2 has a zero odd
// half, so both coordinates under a leaf share its width.

#include <bit>
#include <span>
#include <vector>

#include "falcon/fft.h"
#include "falcon/keygen.h"
#include "falcon/samplerz.h"

namespace cgs::falcon {

class FalconTree {
 public:
  /// Build from a key pair; throws if a leaf width escapes
  /// [sigma_min, sigma_max] (keygen guarantees it does not).
  explicit FalconTree(const KeyPair& kp);

  /// Reassemble a tree from previously-computed parts (the disk codec's
  /// decode path — falcon/state_codec.h, which validates them). No numeric
  /// re-derivation happens here, which is what makes a warm start
  /// bit-identical to the tree that was evicted.
  static FalconTree from_parts(std::size_t n, std::vector<double> nodes,
                               CVec b00, CVec b01, CVec b10, CVec b11,
                               double min_sigma, double max_sigma);

  /// Doubles in a subtree over ring size m: m (log2 m + 2).
  static constexpr std::size_t tree_size(std::size_t m) {
    return m * static_cast<std::size_t>(std::countr_zero(m) + 2);
  }

  std::size_t degree() const { return n_; }
  /// The flat ffLDL buffer (tree_size(degree()) doubles).
  std::span<const double> nodes() const { return nodes_; }

  /// Basis rows in packed FFT: b = [[g, -f], [G, -F]].
  const CVec& b00() const { return b00_; }
  const CVec& b01() const { return b01_; }
  const CVec& b10() const { return b10_; }
  const CVec& b11() const { return b11_; }

  double min_leaf_sigma() const { return min_sigma_; }
  double max_leaf_sigma() const { return max_sigma_; }

 private:
  FalconTree() = default;  // from_parts fills every member

  void build(std::size_t m, const CVec& g00, const CVec& g01,
             const CVec& g11, double sigma_sig, double* out);

  std::size_t n_ = 0;
  std::vector<double> nodes_;
  CVec b00_, b01_, b10_, b11_;
  double min_sigma_ = 1e9, max_sigma_ = 0.0;
};

/// Per-consumer scratch for the ffSampling recursion: split/merge buffers
/// for every recursion level, so a signature performs no heap allocation
/// inside the nearest-plane descent. One instance per signing thread,
/// reused across signatures (not thread-safe; pair it with that thread's
/// SamplerZ). Every buffer is a packed spectrum.
struct FfScratch {
  /// Buffers for the sub-problems of one level (ring size m/2 each): the
  /// child's target pair and its integer outputs.
  struct Level {
    CVec t0, t1, z0, z1;
  };

  /// (Re)size for ring dimension n; idempotent, called by ff_sampling_fft.
  void prepare(std::size_t n);

  std::vector<Level> levels;  // levels[l] holds ring size n >> (l + 1)
  CVec t0, z0, z1;  // top-level adjusted target and outputs
  CVec sig_t0, sig_t1, sig_s0f, sig_s1f;  // sign_with's per-signature
                                          // targets and s spectra
  std::size_t n = 0;
};

/// ffSampling: z ~ lattice Gaussian around target (t0, t1) (packed FFT
/// domain, ring size tree.degree()). Randomness — proposals and rejection
/// uniforms both — is pulled from the SamplerZ's block rings; `scratch`
/// carries the recursion's working memory and receives the results:
/// scratch.z0/.z1 hold the packed spectra of the integer vectors (exact
/// images of integers up to FFT rounding). The signer consumes the spectra
/// directly — s = (t - z) B is a pointwise FFT computation — so the hot
/// path never round-trips z through coefficient space.
void ff_sampling_fft(const CVec& t0, const CVec& t1, const FalconTree& tree,
                     SamplerZ& samplerz, FfScratch& scratch);

}  // namespace cgs::falcon
