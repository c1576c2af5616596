#include "falcon/fft.h"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <utility>
#include <vector>

#include "common/check.h"

namespace cgs::falcon {

namespace {

bool is_pow2(std::size_t m) { return m != 0 && (m & (m - 1)) == 0; }

// Per ring size m: the split/merge twiddles zeta_k(m) for k < m/4, as
// separate re/im arrays (with __restrict pointers below, the split form is
// what lets the butterfly loops vectorize), and the size-m bit-reversal
// that pairs fft/ifft's iterative bottom-up traversal with the recursive
// even/odd definition. fft and ifft are nothing but the split/merge
// kernels applied level by level, so all three agree butterfly for
// butterfly.
struct FftPlan {
  std::vector<double> wr, wi;  // k < m/4 (empty for m < 4)
  std::vector<std::uint32_t> bitrev;
};

const FftPlan& plan_for(std::size_t m) {
  // Lock-free lookup once published: signing threads hit this on every
  // split/merge, so the hot path is one acquire load per call.
  static std::array<std::atomic<const FftPlan*>, 64> plans{};
  static std::mutex build_mu;
  static std::vector<std::unique_ptr<const FftPlan>> owner;

  const int logm = std::countr_zero(m);
  if (const FftPlan* p = plans[logm].load(std::memory_order_acquire))
    return *p;
  std::lock_guard<std::mutex> lock(build_mu);
  if (const FftPlan* p = plans[logm].load(std::memory_order_acquire))
    return *p;

  auto plan = std::make_unique<FftPlan>();
  for (std::size_t k = 0; k < m / 4; ++k) {
    const cplx w = root_of_unity(m, k);
    plan->wr.push_back(w.real());
    plan->wi.push_back(w.imag());
  }
  plan->bitrev.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < logm; ++b) r |= ((i >> b) & 1u) << (logm - 1 - b);
    plan->bitrev[i] = static_cast<std::uint32_t>(r);
  }

  const FftPlan* raw = plan.get();
  owner.push_back(std::move(plan));
  plans[logm].store(raw, std::memory_order_release);
  return *raw;
}

// std::complex<double> is layout-compatible with double[2] (re, im) by
// [complex.numbers.general]; the butterfly kernels run on the raw doubles
// with __restrict so the compiler vectorizes across lanes.
double* as_doubles(cplx* p) { return reinterpret_cast<double*>(p); }
const double* as_doubles(const cplx* p) {
  return reinterpret_cast<const double*>(p);
}

// Merge at ring size m = 4q: f0, f1 hold q packed values each, out 2q.
// With t = zeta_k f1[k], f(zeta_k) = f0[k] + t and, at the mirrored slot
// m/2-1-k (where zeta = -conj(zeta_k)), f = conj(f0[k] - t).
void merge_block(const cplx* f0, const cplx* f1, cplx* out, std::size_t q,
                 const FftPlan& plan) {
  const double* __restrict wr = plan.wr.data();
  const double* __restrict wi = plan.wi.data();
  const double* __restrict a = as_doubles(f0);
  const double* __restrict b = as_doubles(f1);
  double* __restrict o = as_doubles(out);
  const std::size_t last = 2 * q - 1;
  for (std::size_t k = 0; k < q; ++k) {
    const double xr = b[2 * k], xi = b[2 * k + 1];
    const double tr = wr[k] * xr - wi[k] * xi;
    const double ti = wr[k] * xi + wi[k] * xr;
    o[2 * k] = a[2 * k] + tr;
    o[2 * k + 1] = a[2 * k + 1] + ti;
    o[2 * (last - k)] = a[2 * k] - tr;
    o[2 * (last - k) + 1] = ti - a[2 * k + 1];
  }
}

// Split at ring size m = 4q, the inverse of merge_block: the pair
// (f(zeta_k), f(-zeta_k)) is (f[k], conj(f[m/2-1-k])).
void split_block(const cplx* f, cplx* f0, cplx* f1, std::size_t q,
                 const FftPlan& plan) {
  const double* __restrict wr = plan.wr.data();
  const double* __restrict wi = plan.wi.data();
  const double* __restrict p = as_doubles(f);
  double* __restrict q0 = as_doubles(f0);
  double* __restrict q1 = as_doubles(f1);
  const std::size_t last = 2 * q - 1;
  for (std::size_t k = 0; k < q; ++k) {
    const double ar = p[2 * k], ai = p[2 * k + 1];
    const double br = p[2 * (last - k)], bi = -p[2 * (last - k) + 1];
    const double dr = (ar - br) * 0.5, di = (ai - bi) * 0.5;
    q0[2 * k] = (ar + br) * 0.5;
    q0[2 * k + 1] = (ai + bi) * 0.5;
    // d * conj(zeta_k), |zeta_k| == 1.
    q1[2 * k] = dr * wr[k] + di * wi[k];
    q1[2 * k + 1] = di * wr[k] - dr * wi[k];
  }
}

}  // namespace

cplx root_of_unity(std::size_t m, std::size_t k) {
  const double ang =
      std::numbers::pi * (2.0 * static_cast<double>(k) + 1.0) /
      static_cast<double>(m);
  return {std::cos(ang), std::sin(ang)};
}

CVec fft(std::span<const double> coeffs) {
  const std::size_t m = coeffs.size();
  CGS_CHECK(is_pow2(m));
  if (m == 1) return CVec{cplx(coeffs[0], 0.0)};
  const std::size_t h = m / 2;
  CVec out(h), tmp(h);
  // Ping-pong between the two buffers, starting in whichever one makes the
  // last level land in `out`.
  const int levels = std::countr_zero(m) - 1;
  cplx* src = (levels % 2 == 0) ? out.data() : tmp.data();
  cplx* dst = (levels % 2 == 0) ? tmp.data() : out.data();
  // Ring size 2: zeta = i, so each even/odd coefficient pair (in
  // bit-reversed order) packs into one value a + ib.
  const FftPlan& top = plan_for(m);
  for (std::size_t j = 0; j < h; ++j)
    src[j] = cplx(coeffs[top.bitrev[2 * j]], coeffs[top.bitrev[2 * j + 1]]);
  for (std::size_t s = 4; s <= m; s <<= 1) {
    const FftPlan& plan = plan_for(s);
    const std::size_t q = s / 4;
    for (std::size_t o = 0; o < h; o += 2 * q)
      merge_block(src + o, src + o + q, dst + o, q, plan);
    std::swap(src, dst);
  }
  return out;
}

void ifft(std::span<const cplx> spectrum, std::span<double> out) {
  const std::size_t m = out.size();
  CGS_CHECK(is_pow2(m) && spectrum.size() == packed_size(m));
  if (m == 1) {
    out[0] = spectrum[0].real();
    return;
  }
  const std::size_t h = m / 2;
  CVec a(spectrum.begin(), spectrum.end()), b(h);
  cplx* src = a.data();
  cplx* dst = b.data();
  for (std::size_t s = m; s >= 4; s >>= 1) {
    const FftPlan& plan = plan_for(s);
    const std::size_t q = s / 4;
    for (std::size_t o = 0; o < h; o += 2 * q)
      split_block(src + o, dst + o, dst + o + q, q, plan);
    std::swap(src, dst);
  }
  const FftPlan& top = plan_for(m);
  for (std::size_t j = 0; j < h; ++j) {
    out[top.bitrev[2 * j]] = src[j].real();
    out[top.bitrev[2 * j + 1]] = src[j].imag();
  }
}

std::vector<double> ifft(std::span<const cplx> spectrum, std::size_t m) {
  std::vector<double> out(m);
  ifft(spectrum, out);
  return out;
}

void split_fft(std::span<const cplx> f, std::span<cplx> f0,
               std::span<cplx> f1) {
  const std::size_t h = f.size();
  // plan_for indexes by log2: a non-power-of-two size would silently pick
  // the wrong plan and read past its twiddle table.
  CGS_CHECK(is_pow2(h));
  CGS_CHECK(f0.size() == packed_size(h) && f1.size() == packed_size(h));
  if (h == 1) {  // ring size 2: f(i) = f0 + i f1 with f0, f1 real
    f0[0] = cplx(f[0].real(), 0.0);
    f1[0] = cplx(f[0].imag(), 0.0);
    return;
  }
  split_block(f.data(), f0.data(), f1.data(), h / 2, plan_for(2 * h));
}

void split_fft(std::span<const cplx> f, CVec& f0, CVec& f1) {
  f0.resize(packed_size(f.size()));
  f1.resize(packed_size(f.size()));
  split_fft(f, std::span<cplx>(f0), std::span<cplx>(f1));
}

void merge_fft(std::span<const cplx> f0, std::span<const cplx> f1,
               std::span<cplx> out) {
  const std::size_t h = out.size();
  CGS_CHECK(is_pow2(h));
  CGS_CHECK(f0.size() == packed_size(h) && f1.size() == packed_size(h));
  if (h == 1) {  // two size-1 rings into ring size 2
    out[0] = cplx(f0[0].real(), f1[0].real());
    return;
  }
  merge_block(f0.data(), f1.data(), out.data(), h / 2, plan_for(2 * h));
}

CVec mul_fft(std::span<const cplx> a, std::span<const cplx> b) {
  CGS_CHECK(a.size() == b.size());
  CVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = cmul(a[i], b[i]);
  return r;
}

CVec add_fft(std::span<const cplx> a, std::span<const cplx> b) {
  CGS_CHECK(a.size() == b.size());
  CVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] + b[i];
  return r;
}

CVec sub_fft(std::span<const cplx> a, std::span<const cplx> b) {
  CGS_CHECK(a.size() == b.size());
  CVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

CVec adj_fft(std::span<const cplx> a) {
  CVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = std::conj(a[i]);
  return r;
}

CVec div_fft(std::span<const cplx> a, std::span<const cplx> b) {
  CGS_CHECK(a.size() == b.size());
  CVec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] / b[i];
  return r;
}

}  // namespace cgs::falcon
