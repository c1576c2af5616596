#include "falcon/keygen.h"

#include <cmath>

#include "cdt/cdt_samplers.h"
#include "cdt/cdt_table.h"
#include "common/check.h"
#include "falcon/fft.h"
#include "falcon/ntrusolve.h"

namespace cgs::falcon {

FalconParams FalconParams::for_degree(std::size_t n) {
  FalconParams p;
  p.n = n;
  // Falcon's signature width grows mildly with n; 165.736 (n=512) and
  // 168.389 (n=1024) are the official values, 163 extrapolates to 256.
  p.sigma_sig = n >= 1024 ? 168.389 : (n >= 512 ? 165.736 : 163.0);
  return p;
}

std::int64_t FalconParams::bound_sq() const {
  if (norm_bound_sq != 0) return norm_bound_sq;
  const double b = 1.1 * sigma_sig * std::sqrt(2.0 * static_cast<double>(n));
  return static_cast<std::int64_t>(b * b);
}

namespace {

// Gram-Schmidt norm of the NTRU basis candidate (Falcon keygen eq.):
// gamma = max(||(g,-f)||, ||(q fbar / (f fbar + g gbar), q gbar / ...)||).
double gs_norm_sq(const IPoly& f, const IPoly& g) {
  const double first = static_cast<double>(norm_sq_pair(f, g));
  const CVec ff = fft(to_doubles(f));
  const CVec gf = fft(to_doubles(g));
  const std::size_t n = f.size();
  double second = 0.0;
  for (std::size_t k = 0; k < ff.size(); ++k) {
    const double d = std::norm(ff[k]) + std::norm(gf[k]);
    // ||q f* / (f f* + g g*)||^2 contribution of slot k is q^2 |f_k|^2/d^2;
    // FFT Parseval: coefficient-domain norm = spectrum norm / n, and the
    // packed half carries half the spectrum norm.
    second += static_cast<double>(kQ) * kQ * (std::norm(ff[k]) + std::norm(gf[k])) / (d * d);
  }
  second *= 2.0 / static_cast<double>(n);
  return std::max(first, second);
}

}  // namespace

KeyPair keygen(const FalconParams& params, RandomBitSource& rng,
               KeygenStats* stats) {
  const std::size_t n = params.n;
  CGS_CHECK(n >= 4 && (n & (n - 1)) == 0);

  // sigma_fg = 1.17 sqrt(q / 2n), as a rational for the table builder.
  const double sfg = 1.17 * std::sqrt(static_cast<double>(kQ) /
                                      (2.0 * static_cast<double>(n)));
  const auto gp = gauss::GaussianParams::from_sigma(
      static_cast<std::uint64_t>(std::lround(sfg * 1000.0)), 1000,
      /*tau=*/13, /*precision=*/64);
  const gauss::ProbMatrix matrix(gp);
  const cdt::CdtTable table(matrix);
  cdt::CdtBinarySearchSampler sampler(table);

  const NttContext ntt(n);
  const double gs_bound = 1.17 * 1.17 * static_cast<double>(kQ);

  KeygenStats local;
  KeygenStats& st = stats ? *stats : local;
  for (;;) {
    IPoly f(n), g(n);
    for (auto& c : f) c = sampler.sample(rng);
    for (auto& c : g) c = sampler.sample(rng);

    if (gs_norm_sq(f, g) > gs_bound) {
      ++st.fg_resamples;
      continue;
    }
    std::vector<std::uint32_t> f_inv;
    if (!ntt.try_invert(to_mod_q_poly(f), f_inv)) {
      ++st.fg_resamples;
      continue;
    }

    auto sol = ntru_solve(to_zpoly(f), to_zpoly(g), kQ);
    if (!sol) {
      ++st.ntru_failures;
      continue;
    }

    KeyPair kp;
    kp.params = params;
    kp.f = f;
    kp.g = g;
    kp.f_cap = from_zpoly(sol->f_cap);
    kp.g_cap = from_zpoly(sol->g_cap);
    kp.h = ntt.multiply(to_mod_q_poly(g), f_inv);
    return kp;
  }
}

}  // namespace cgs::falcon
