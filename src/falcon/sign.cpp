#include "falcon/sign.h"

#include "common/check.h"

namespace cgs::falcon {

Signature sign_with(const KeyPair& kp, const FalconTree& tree,
                    std::string_view message, SamplerZ& sz,
                    FfScratch& scratch, SignStats* stats) {
  const std::size_t n = kp.params.n;
  Signature sig;
  // 40 nonce bytes from 5 words of the block supply.
  for (std::size_t i = 0; i < sig.nonce.size(); i += 8) {
    std::uint64_t w = sz.next_word();
    for (std::size_t b = 0; b < 8; ++b, w >>= 8)
      sig.nonce[i + b] = static_cast<std::uint8_t>(w);
  }

  const std::vector<std::uint32_t> c = hash_to_point(sig.nonce, message, n);
  std::vector<double> c_real(n);
  for (std::size_t i = 0; i < n; ++i) c_real[i] = static_cast<double>(c[i]);
  const CVec c_fft = fft(c_real);

  // t = (c, 0) B^-1 = (c (-F)/q, c f/q); b11 = FFT(-F), b01 = FFT(-f).
  // Targets and s spectra live in the per-thread scratch — the batched
  // path signs thousands of messages per second, so per-signature
  // allocations are kept off the hot path. Spectra are packed: h values.
  scratch.prepare(n);
  const std::size_t h = c_fft.size();
  const double inv_q = 1.0 / static_cast<double>(kQ);
  CVec& t0 = scratch.sig_t0;
  CVec& t1 = scratch.sig_t1;
  for (std::size_t k = 0; k < h; ++k) {
    t0[k] = cmul(c_fft[k], tree.b11()[k]) * inv_q;
    t1[k] = -cmul(c_fft[k], tree.b01()[k]) * inv_q;
  }

  const std::int64_t bound = kp.params.bound_sq();
  const std::uint64_t base_before = sz.base_calls();
  std::uint64_t attempts = 0;
  CVec& s0_fft = scratch.sig_s0f;
  CVec& s1_fft = scratch.sig_s1f;
  std::vector<double> s_r(n);
  for (;;) {
    ++attempts;
    // z stays in FFT domain: the spectra in scratch.z0/.z1 are exact
    // images of the sampled integers (up to FFT rounding, absorbed by the
    // nearbyint below), so s = (t - z) B needs no z round-trip through
    // coefficient space.
    ff_sampling_fft(t0, t1, tree, sz, scratch);
    for (std::size_t k = 0; k < h; ++k) {
      const cplx d0 = t0[k] - scratch.z0[k];
      const cplx d1 = t1[k] - scratch.z1[k];
      s0_fft[k] = cmul(d0, tree.b00()[k]) + cmul(d1, tree.b10()[k]);
      s1_fft[k] = cmul(d0, tree.b01()[k]) + cmul(d1, tree.b11()[k]);
    }
    // ||s0||^2 via Parseval (rows of the negacyclic transform are
    // orthogonal with norm sqrt(n); the packed half carries half the
    // energy) — s0 itself is only ever used for the norm check, so it
    // never leaves the FFT domain. The spectrum images a near-integer
    // vector, so the float energy sits within ~1e-3 of the rounded-integer
    // norm; attempts inside a +-2 guard band of the bound fall back to the
    // exact rounded check (typical norms sit at ~0.7x the bound, so the
    // band is ~never entered).
    double s0_energy = 0.0;
    for (std::size_t k = 0; k < h; ++k)
      s0_energy += s0_fft[k].real() * s0_fft[k].real() +
                   s0_fft[k].imag() * s0_fft[k].imag();
    s0_energy *= 2.0 / static_cast<double>(n);
    ifft(s1_fft, s_r);
    IPoly s1(n);
    for (std::size_t i = 0; i < n; ++i)
      s1[i] = static_cast<std::int32_t>(std::nearbyint(s_r[i]));
    const double total = s0_energy + static_cast<double>(norm_sq(s1));
    bool accept;
    if (total <= static_cast<double>(bound) - 2.0) {
      accept = true;
    } else if (total > static_cast<double>(bound) + 2.0) {
      accept = false;
    } else {
      ifft(s0_fft, s_r);
      IPoly s0(n);
      for (std::size_t i = 0; i < n; ++i)
        s0[i] = static_cast<std::int32_t>(std::nearbyint(s_r[i]));
      accept = norm_sq_pair(s0, s1) <= bound;
    }
    if (accept) {
      sig.s1 = std::move(s1);
      break;
    }
  }
  if (stats) {
    stats->attempts += attempts;
    stats->base_samples += sz.base_calls() - base_before;
    stats->samplerz_calls += 2 * n * attempts;
  }
  return sig;
}

Signer::Signer(const KeyPair& kp, BlockSource& source, double sigma_base)
    : kp_(&kp),
      tree_(std::make_shared<const FalconTree>(kp)),
      samplerz_(source, sigma_base) {}

Signer::Signer(std::shared_ptr<const FalconTree> tree, const KeyPair& kp,
               BlockSource& source, double sigma_base)
    : kp_(&kp),
      tree_(std::move(tree)),
      samplerz_(source, sigma_base) {
  CGS_CHECK_MSG(tree_ != nullptr, "Signer needs a tree");
}

Signature Signer::sign(std::string_view message, SignStats* stats) {
  return sign_with(*kp_, *tree_, message, samplerz_, scratch_, stats);
}

}  // namespace cgs::falcon
