#pragma once
// SamplerZ: the integer Gaussian with arbitrary center c and width
// sigma' <= sigma_base that ffSampling calls ~2N times per signature. It is
// a rejection sampler whose *proposals* come from a pluggable supply —
// exactly the experiment of Table 1: swapping the base sampler between
// byte-scan CDT / binary CDT / linear CDT / the bit-sliced constant-time
// sampler changes only this inner loop.
//
// Batch-first since PR 3: proposals and rejection uniforms are drained
// from prefetched rings refilled one BlockSource block at a time, so the
// bit-sliced backends amortize a whole netlist pass (64-256 lanes, or an
// engine fan-out) per refill instead of paying the scalar pull per
// proposal. Scalar base samplers (Table 1's CDT variants) plug in through
// a caller-owned ScalarBlockSource (preferred block 1 — identical draw
// order to the historical scalar loop).
//
// Threading contract: a SamplerZ is single-consumer. The stats counters
// are plain per-instance fields — the SigningService gives every slot
// its own SamplerZ and aggregates base_calls()/rejections() on demand
// while no request is in flight, so there is no shared mutable state to
// race on (and no atomics on the hot path).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/blocksource.h"
#include "common/check.h"

namespace cgs::falcon {

/// 1/(2 sigma^2), the width term of the SamplerZ parabola. One expression
/// for every producer (tree leaves, their decode, SamplerZ itself), so a
/// value recomputed anywhere is bit-identical to the stored one.
inline double inv_two_sigma_sq(double sigma) {
  return 1.0 / (2.0 * sigma * sigma);
}

namespace detail {

/// `take_a ? a : b` as a mask select on the bit patterns: a ternary on
/// doubles compiles to a jump wherever GCC can thread one side.
inline double select_bits(bool take_a, double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  const std::uint64_t mask = -static_cast<std::uint64_t>(take_a);
  const std::uint64_t r = (ua & mask) | (ub & ~mask);
  double out;
  std::memcpy(&out, &r, sizeof out);
  return out;
}

/// exp(-x) without the libm round trip, branch-free: split x = k ln2 + r
/// (Cody-Waite two-term reduction, so the reduced argument keeps full
/// precision), evaluate the degree-16 Taylor polynomial of exp(t) at
/// t = -r in (-ln2, 0] (truncation error ln2^17/17! ~= 5.5e-18, below one
/// ulp of the result), scale by a bit-assembled 2^-k. The polynomial runs
/// in Estrin's scheme over t^2, t^4, t^8: five dependent multiply-add
/// steps instead of Horner's sixteen, the latency SamplerZ pays on every
/// base draw. Within a few ulps of std::exp, far below the 2^-53
/// quantization of the uniform the result is compared against.
/// x <= 0 and NaN return exactly 1 (accept); x is capped at 1022 ln2,
/// where the result (~2^-1022) sits below every nonzero uniform.
/// The clamps are bit-mask selects and the floor a truncation of a
/// non-negative value, so the compiled function holds no branch (the
/// machine-code audit in tests/test_ct_audit.cpp checks it).
inline double exp_neg(double x) {
  constexpr double kInvLn2 = 1.4426950408889634074;
  // ln2 split with 27 zero low bits in the high part: kd (integral,
  // <= 1022) times kLn2Hi is exact, so r carries no cancellation error
  // from the reduction.
  constexpr double kLn2Hi = 0x1.62e42fefa38p-1;
  constexpr double kLn2Lo = 0x1.ef35793c7673p-45;
  constexpr double kMaxX = 1022.0 * 0.69314718055994530942;
  x = select_bits(x > 0.0, x, 0.0);  // NaN compares false: -> 0
  x = select_bits(x < kMaxX, x, kMaxX);
  std::int64_t k = static_cast<std::int64_t>(x * kInvLn2);  // = floor, x >= 0
  k = k < 1022 ? k : 1022;
  const double kd = static_cast<double>(k);
  const double t = -((x - kd * kLn2Hi) - kd * kLn2Lo);  // in (-ln2, 0]
  // c_j = 1/j!, exactly rounded (j! <= 16! < 2^53 is exact).
  constexpr double c2 = 1.0 / 2, c3 = 1.0 / 6, c4 = 1.0 / 24,
                   c5 = 1.0 / 120, c6 = 1.0 / 720, c7 = 1.0 / 5040,
                   c8 = 1.0 / 40320, c9 = 1.0 / 362880,
                   c10 = 1.0 / 3628800, c11 = 1.0 / 39916800,
                   c12 = 1.0 / 479001600, c13 = 1.0 / 6227020800,
                   c14 = 1.0 / 87178291200, c15 = 1.0 / 1307674368000,
                   c16 = 1.0 / 20922789888000;
  const double t2 = t * t;
  const double t4 = t2 * t2;
  const double t8 = t4 * t4;
  const double p01 = 1.0 + t, p23 = c2 + c3 * t, p45 = c4 + c5 * t,
               p67 = c6 + c7 * t, p89 = c8 + c9 * t, pab = c10 + c11 * t,
               pcd = c12 + c13 * t, pef = c14 + c15 * t;
  const double p0 = p01 + p23 * t2, p1 = p45 + p67 * t2,
               p2 = p89 + pab * t2, p3 = pcd + pef * t2;
  const double lo = p0 + p1 * t4;
  const double hi = p2 + p3 * t4 + c16 * t8;
  const double p = lo + hi * t8;
  // 2^-k assembled from the exponent field (k in [0, 1022]).
  const std::uint64_t bits = static_cast<std::uint64_t>(1023 - k) << 52;
  double scale;
  std::memcpy(&scale, &bits, sizeof scale);
  return p * scale;
}

}  // namespace detail

class SamplerZ {
 public:
  /// Batch-aware: `source` (not owned) supplies base samples from
  /// D_{Z, sigma_base} (signed, centered at 0) and uniform words, pulled
  /// in blocks of its preferred size.
  SamplerZ(BlockSource& source, double sigma_base);

  SamplerZ(const SamplerZ&) = delete;
  SamplerZ& operator=(const SamplerZ&) = delete;

  /// One sample from D_{Z, c, sigma}; requires sigma <= sigma_base.
  std::int32_t sample(double c, double sigma);

  /// Hot-path form with the caller's precomputed isq = 1/(2 sigma^2) —
  /// the tree leaves carry it so the ~2N parabola setups per signature
  /// skip the divisions. Inline (header-defined) so the ffSampling leaves
  /// fold the whole rejection loop into the recursion.
  std::int32_t sample(double c, double sigma, double isq) {
    CGS_CHECK_MSG(sigma <= sigma_base_ && sigma > 0,
                  "SamplerZ needs sigma <= sigma_base");
    const double s = std::floor(c);
    const double r = c - s;  // fractional center in [0, 1)

    // Propose y ~ D_{Z, sigma_base}; accept with probability
    //   exp(g(y) - g_max),  g(y) = y^2/(2 sb^2) - (y - r)^2/(2 sigma^2),
    // which shapes the output into D_{Z, r, sigma}. g is a downward
    // parabola (sigma <= sb), so g_max is at the vertex.
    const double a = inv_2sb2_ - isq;  // < 0 (or 0 when equal)
    const double b = r * (2.0 * isq);  // r / sigma^2
    const double c0 = -r * r * isq;
    const double g_max = (a < 0.0) ? (c0 - b * b / (4.0 * a)) : c0;

    for (;;) {
      ++base_calls_;
      const double y = static_cast<double>(next_base());
      const double g = a * y * y + b * y + c0;
      const double accept_p = detail::exp_neg(g_max - g);
      // Uniform in [0,1) from 53 random bits (0x1p-53 multiply == ldexp
      // for a power-of-two scale, without the libm call).
      const double u = static_cast<double>(next_word() >> 11) * 0x1.0p-53;
      if (u < accept_p)
        return static_cast<std::int32_t>(s) + static_cast<std::int32_t>(y);
      ++rejections_;
    }
  }

  /// One uniform word off the word ring — nonces ride the same prefetched
  /// supply as the rejection uniforms.
  std::uint64_t next_word() {
    if (word_pos_ == word_ring_.size()) {
      src_->fill_words(word_ring_);
      word_pos_ = 0;
    }
    return word_ring_[word_pos_++];
  }

  BlockSource& source() { return *src_; }
  double sigma_base() const { return sigma_base_; }

  std::uint64_t base_calls() const { return base_calls_; }
  std::uint64_t rejections() const { return rejections_; }

 private:
  std::int32_t next_base() {
    if (base_pos_ == base_ring_.size()) {
      src_->fill_base(base_ring_);
      base_pos_ = 0;
    }
    return base_ring_[base_pos_++];
  }

  BlockSource* src_;
  double sigma_base_;
  double inv_2sb2_;  // 1/(2 sigma_base^2)
  // Prefetched rings: pos == size means empty (refill on next pull).
  std::vector<std::int32_t> base_ring_;
  std::vector<std::uint64_t> word_ring_;
  std::size_t base_pos_ = 0;
  std::size_t word_pos_ = 0;
  std::uint64_t base_calls_ = 0;
  std::uint64_t rejections_ = 0;
};

}  // namespace cgs::falcon
