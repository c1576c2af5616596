#pragma once
// Negacyclic complex FFT over R[x]/(x^m+1), m a power of two: the numeric
// backbone of Falcon's keygen (Babai reduction), ffLDL tree and ffSampling.
//
// Hermitian-packed: a real polynomial of size m >= 2 is evaluated at the
// m odd 2m-th roots of unity zeta_k = exp(i pi (2k+1)/m), and since
// zeta_{m-1-k} = conj(zeta_k) its value there is the conjugate of the
// value at zeta_k. Only the first half, k < m/2 (the roots in the upper
// half plane, in natural order), is stored. A size-1 polynomial is its
// own spectrum: one value with a zero imaginary part. Every spectrum in
// src/falcon/ is in this form; pointwise products, sums, quotients and
// adjoints (conjugation) act on the stored half unchanged.
//
// Sizes 1 and 2 both pack into one value, so the functions that produce
// coefficients or merge to a size-2 spectrum take the ring size from their
// output.

#include <complex>
#include <span>
#include <vector>

namespace cgs::falcon {

using cplx = std::complex<double>;
using CVec = std::vector<cplx>;

/// Packed spectrum length of a ring of size m: m/2, or 1 for m == 1.
constexpr std::size_t packed_size(std::size_t m) { return m < 2 ? 1 : m / 2; }

/// Forward FFT of real coefficients (size m, a power of two); returns
/// packed_size(m) values.
CVec fft(std::span<const double> coeffs);

/// Inverse FFT: the m = out.size() real coefficients of a packed spectrum
/// (spectrum.size() == packed_size(m)).
void ifft(std::span<const cplx> spectrum, std::span<double> out);
std::vector<double> ifft(std::span<const cplx> spectrum, std::size_t m);

/// FFT-domain split: packed spectrum of f (ring size m >= 2, so f.size()
/// is m/2) -> packed spectra of f0, f1 (ring size m/2) where
/// f(x) = f0(x^2) + x f1(x^2). f0 and f1 must be sized packed_size(m/2)
/// and must not alias f.
void split_fft(std::span<const cplx> f, std::span<cplx> f0,
               std::span<cplx> f1);
void split_fft(std::span<const cplx> f, CVec& f0, CVec& f1);

/// Inverse of split_fft: out.size() == packed_size(m) for the merged ring
/// size m (so out.size() == 1 merges two size-1 rings into a size-2 one).
/// out must not alias f0 or f1.
void merge_fft(std::span<const cplx> f0, std::span<const cplx> f1,
               std::span<cplx> out);

/// Pointwise helpers.
CVec mul_fft(std::span<const cplx> a, std::span<const cplx> b);
CVec add_fft(std::span<const cplx> a, std::span<const cplx> b);
CVec sub_fft(std::span<const cplx> a, std::span<const cplx> b);
/// Adjoint f*(x) = f(1/x): complex conjugate per evaluation point.
CVec adj_fft(std::span<const cplx> a);
/// a / b pointwise (b must be nonzero everywhere).
CVec div_fft(std::span<const cplx> a, std::span<const cplx> b);

/// The k-th evaluation point zeta_k for ring size m.
cplx root_of_unity(std::size_t m, std::size_t k);

/// Explicit complex multiply for finite operands: std::complex operator*
/// lowers to the __muldc3 inf/nan fix-up without -ffast-math, several
/// times the cost of the four real multiplies. Spectra here are finite by
/// construction, so hot loops (butterflies, ffSampling pointwise stages)
/// use the plain formula.
inline cplx cmul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// a * conj(b) (adjoint products, inverse butterflies with |b| == 1).
inline cplx cmul_conj(cplx a, cplx b) {
  return {a.real() * b.real() + a.imag() * b.imag(),
          a.imag() * b.real() - a.real() * b.imag()};
}

}  // namespace cgs::falcon
