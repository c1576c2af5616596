#include "falcon/ffsampling.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cgs::falcon {

void FalconTree::build(std::size_t m, const CVec& g00, const CVec& g01,
                       const CVec& g11, double sigma_sig, double* out) {
  if (m == 1) {
    const double d = g00[0].real();
    CGS_CHECK_MSG(d > 0, "LDL diagonal not positive definite");
    const double sigma = sigma_sig / std::sqrt(d);
    out[0] = sigma;
    out[1] = inv_two_sigma_sq(sigma);
    min_sigma_ = std::min(min_sigma_, sigma);
    max_sigma_ = std::max(max_sigma_, sigma);
    return;
  }
  // LDL*: G = [[1,0],[l10,1]] diag(d00,d11) [[1,l10*],[0,1]] with
  // l10 = g10/g00 = adj(g01)/g00 and d11 = g11 - l10 g01 (g00 self-adjoint).
  const CVec l10 = div_fft(adj_fft(g01), g00);
  const CVec d11 = sub_fft(g11, mul_fft(l10, g01));
  for (std::size_t k = 0; k < l10.size(); ++k) {
    out[2 * k] = l10[k].real();
    out[2 * k + 1] = l10[k].imag();
  }
  // Recurse: a self-adjoint diagonal d (ring size m) becomes the 2x2 Gram
  // [[d_0, d_1], [adj(d_1), d_0]] over ring size m/2.
  CVec a0, a1;
  split_fft(g00, a0, a1);
  build(m / 2, a0, a1, a0, sigma_sig, out + m);
  split_fft(d11, a0, a1);
  build(m / 2, a0, a1, a0, sigma_sig, out + m + tree_size(m / 2));
}

FalconTree::FalconTree(const KeyPair& kp)
    : n_(kp.params.n), nodes_(tree_size(kp.params.n)) {
  IPoly neg_f(n_), neg_f_cap(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    neg_f[i] = -kp.f[i];
    neg_f_cap[i] = -kp.f_cap[i];
  }
  b00_ = fft(to_doubles(kp.g));
  b01_ = fft(to_doubles(neg_f));
  b10_ = fft(to_doubles(kp.g_cap));
  b11_ = fft(to_doubles(neg_f_cap));

  const CVec g00 = add_fft(mul_fft(b00_, adj_fft(b00_)),
                           mul_fft(b01_, adj_fft(b01_)));
  const CVec g01 = add_fft(mul_fft(b00_, adj_fft(b10_)),
                           mul_fft(b01_, adj_fft(b11_)));
  const CVec g11 = add_fft(mul_fft(b10_, adj_fft(b10_)),
                           mul_fft(b11_, adj_fft(b11_)));
  build(n_, g00, g01, g11, kp.params.sigma_sig, nodes_.data());
  CGS_CHECK_MSG(min_sigma_ >= kp.params.sigma_min &&
                    max_sigma_ <= kp.params.sigma_max,
                "tree leaf sigma escaped the base-sampler envelope");
}

FalconTree FalconTree::from_parts(std::size_t n, std::vector<double> nodes,
                                  CVec b00, CVec b01, CVec b10, CVec b11,
                                  double min_sigma, double max_sigma) {
  CGS_CHECK(nodes.size() == tree_size(n) && b00.size() == packed_size(n) &&
            b01.size() == b00.size() && b10.size() == b00.size() &&
            b11.size() == b00.size());
  FalconTree tree;
  tree.n_ = n;
  tree.nodes_ = std::move(nodes);
  tree.b00_ = std::move(b00);
  tree.b01_ = std::move(b01);
  tree.b10_ = std::move(b10);
  tree.b11_ = std::move(b11);
  tree.min_sigma_ = min_sigma;
  tree.max_sigma_ = max_sigma;
  return tree;
}

void FfScratch::prepare(std::size_t dim) {
  if (n == dim) return;
  levels.clear();
  for (std::size_t m = dim; m >= 8; m /= 2) {
    const std::size_t q = m / 4;  // packed size of ring m/2
    levels.push_back(Level{CVec(q), CVec(q), CVec(q), CVec(q)});
  }
  for (CVec* v : {&t0, &z0, &z1, &sig_t0, &sig_t1, &sig_s0f, &sig_s1f})
    v->assign(packed_size(dim), cplx{});
  n = dim;
}

namespace {

// Both coordinates of a ring-size-2 target t = a + ib sit under one leaf
// and share its width (the leaf's Gram matrix is diagonal): the odd one is
// drawn first, then the even one.
inline cplx leaf_pair(const double* leaf, cplx t, SamplerZ& sz) {
  const double b = sz.sample(t.imag(), leaf[0], leaf[1]);
  const double a = sz.sample(t.real(), leaf[0], leaf[1]);
  return {a, b};
}

// Ring size 2: one packed value per target, two leaves below. t0 is
// clobbered for the adjusted target.
inline void ffsamp2(const double* node, cplx& t0, cplx t1, SamplerZ& sz,
                    cplx& z0, cplx& z1) {
  z1 = leaf_pair(node + 2 + FalconTree::tree_size(1), t1, sz);
  t0 += cmul(t1 - z1, cplx(node[0], node[1]));
  z0 = leaf_pair(node + 2, t0, sz);
}

// Recursive nearest-plane sampling over preallocated per-level buffers:
// (t0, t1) is the target pair over ring size m (t0 is clobbered in place
// for the adjusted target), integer outputs land in (z0, z1) as packed
// spectra. The children of one node run sequentially, so one Level per
// depth suffices.
void ffsamp_rec(std::size_t m, const double* node, cplx* t0, const cplx* t1,
                cplx* z0, cplx* z1, SamplerZ& sz, FfScratch& scratch,
                std::size_t depth) {
  if (m == 2) {
    ffsamp2(node, t0[0], t1[0], sz, z0[0], z1[0]);
    return;
  }
  const std::size_t h = m / 2;  // packed values per target
  const double* child0 = node + m;
  const double* child1 = child0 + FalconTree::tree_size(m / 2);
  if (m == 4) {
    // Inlined with the literal twiddle zeta_{4,0} = (sqrt2/2, sqrt2/2):
    // the m == 4 nodes are a quarter of the tree, and their split/merge
    // bodies are one butterfly each.
    constexpr double kR = 0.70710678118654752440;  // sqrt(2)/2
    constexpr cplx w0{kR, kR};
    const auto split4 = [w0](const cplx* t, cplx& a, cplx& b) {
      const cplx u = std::conj(t[1]);
      a = (t[0] + u) * 0.5;
      b = cmul_conj((t[0] - u) * 0.5, w0);
    };
    const auto merge4 = [w0](cplx a, cplx b, cplx* z) {
      const cplx t = cmul(w0, b);
      z[0] = a + t;
      z[1] = std::conj(a - t);
    };
    cplx a, b, za, zb;
    split4(t1, a, b);
    ffsamp2(child1, a, b, sz, za, zb);
    merge4(za, zb, z1);
    for (std::size_t k = 0; k < 2; ++k)
      t0[k] += cmul(t1[k] - z1[k], cplx(node[2 * k], node[2 * k + 1]));
    split4(t0, a, b);
    ffsamp2(child0, a, b, sz, za, zb);
    merge4(za, zb, z0);
    return;
  }
  FfScratch::Level& lv = scratch.levels[depth];
  split_fft(std::span<const cplx>(t1, h), lv.t0, lv.t1);
  ffsamp_rec(m / 2, child1, lv.t0.data(), lv.t1.data(), lv.z0.data(),
             lv.z1.data(), sz, scratch, depth + 1);
  merge_fft(lv.z0, lv.z1, std::span<cplx>(z1, h));

  // t0 <- t0 + (t1 - z1) l10, in place.
  for (std::size_t k = 0; k < h; ++k)
    t0[k] += cmul(t1[k] - z1[k], cplx(node[2 * k], node[2 * k + 1]));
  split_fft(std::span<const cplx>(t0, h), lv.t0, lv.t1);
  ffsamp_rec(m / 2, child0, lv.t0.data(), lv.t1.data(), lv.z0.data(),
             lv.z1.data(), sz, scratch, depth + 1);
  merge_fft(lv.z0, lv.z1, std::span<cplx>(z0, h));
}

}  // namespace

void ff_sampling_fft(const CVec& t0, const CVec& t1, const FalconTree& tree,
                     SamplerZ& samplerz, FfScratch& scratch) {
  const std::size_t n = tree.degree();
  CGS_CHECK(n >= 2 && t0.size() == packed_size(n) && t1.size() == t0.size());
  scratch.prepare(n);
  std::copy(t0.begin(), t0.end(), scratch.t0.begin());
  ffsamp_rec(n, tree.nodes().data(), scratch.t0.data(), t1.data(),
             scratch.z0.data(), scratch.z1.data(), samplerz, scratch, 0);
}

}  // namespace cgs::falcon
