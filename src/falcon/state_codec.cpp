#include "falcon/state_codec.h"

#include <bit>
#include <cmath>

#include "common/check.h"
#include "serial/serial.h"

namespace cgs::falcon {

namespace {

// Degrees the system ever runs (decode bound — a corrupt size field must
// not turn into a multi-gigabyte allocation before the checksum is even
// consulted by a caller that skipped unwrap).
constexpr std::uint64_t kMaxDegree = 1u << 14;

void put_double(serial::Writer& w, double v) {
  w.u64(std::bit_cast<std::uint64_t>(v));
}

double get_double(serial::Reader& r) {
  const double v = std::bit_cast<double>(r.u64());
  if (!std::isfinite(v))
    throw serial::SerialError("state_codec: non-finite double");
  return v;
}

// std::complex<double> is array-of-two-doubles layout-compatible, so a
// CVec serializes as one 2n-double bulk array (decode still validates
// finiteness per coordinate — a corrupt spectrum must not parse).
void put_cvec(serial::Writer& w, const CVec& v) {
  w.f64_bits(std::span<const double>(
      reinterpret_cast<const double*>(v.data()), 2 * v.size()));
}

std::vector<double> get_doubles(serial::Reader& r, std::size_t count) {
  std::vector<double> d = r.f64_bits(count);
  for (double x : d)
    if (!std::isfinite(x))
      throw serial::SerialError("state_codec: non-finite double");
  return d;
}

CVec get_cvec(serial::Reader& r, std::size_t n) {
  const std::vector<double> d = get_doubles(r, 2 * n);
  CVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = cplx(d[2 * i], d[2 * i + 1]);
  return v;
}

void put_ipoly(serial::Writer& w, const IPoly& p) {
  w.u32s(std::span<const std::uint32_t>(
      reinterpret_cast<const std::uint32_t*>(p.data()), p.size()));
}

IPoly get_ipoly(serial::Reader& r, std::size_t n) {
  const std::vector<std::uint32_t> raw = r.u32s(n);
  IPoly p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::int32_t>(raw[i]);
  return p;
}

void put_u32vec(serial::Writer& w, const std::vector<std::uint32_t>& v) {
  w.u32s(v);
}

std::vector<std::uint32_t> get_u32vec(serial::Reader& r, std::size_t n) {
  return r.u32s(n);
}

std::uint64_t checked_degree(serial::Reader& r) {
  const std::uint64_t n = r.u64();
  if (n == 0 || n > kMaxDegree || (n & (n - 1)) != 0)
    throw serial::SerialError("state_codec: degree not a small power of two");
  return n;
}

// Tree payload layout version: the first word of a kFalconTree payload.
// Version 1 (unnumbered: its first word was the degree) held full-spectrum
// pointer-tree nodes; a record in it fails decode and is rebuilt.
constexpr std::uint64_t kTreeLayout = 2;

// Every leaf width of the subtree over ring size m must lie in [lo, hi];
// its 1/(2 sigma'^2) is recomputed from sigma' rather than trusted (with
// the build's own expression, so it is bit-identical to the one encoded).
void check_leaves(double* node, std::size_t m, double lo, double hi) {
  if (m == 1) {
    const double sigma = node[0];
    if (!(sigma >= lo && sigma <= hi))
      throw serial::SerialError("state_codec: leaf sigma outside its range");
    node[1] = inv_two_sigma_sq(sigma);
    return;
  }
  check_leaves(node + m, m / 2, lo, hi);
  check_leaves(node + m + FalconTree::tree_size(m / 2), m / 2, lo, hi);
}

void put_params(serial::Writer& w, const FalconParams& params) {
  w.u64(params.n);
  put_double(w, params.sigma_sig);
  put_double(w, params.sigma_min);
  put_double(w, params.sigma_max);
  w.u64(static_cast<std::uint64_t>(params.norm_bound_sq));
}

FalconParams get_params(serial::Reader& r) {
  FalconParams params;
  params.n = static_cast<std::size_t>(checked_degree(r));
  params.sigma_sig = get_double(r);
  params.sigma_min = get_double(r);
  params.sigma_max = get_double(r);
  params.norm_bound_sq = static_cast<std::int64_t>(r.u64());
  return params;
}

}  // namespace

std::vector<std::uint8_t> encode_tree(const KeyPair& kp,
                                      const FalconTree& tree) {
  const std::size_t n = kp.params.n;
  CGS_CHECK(kp.f.size() == n && kp.g.size() == n && tree.degree() == n);
  serial::Writer w;
  w.reserve(tree_footprint_bytes(tree) + 16 * n);  // one allocation, not
                                                   // doubling growth
  w.u64(kTreeLayout);
  w.u64(n);
  put_ipoly(w, kp.f);
  put_ipoly(w, kp.g);
  put_cvec(w, tree.b00());
  put_cvec(w, tree.b01());
  put_cvec(w, tree.b10());
  put_cvec(w, tree.b11());
  put_double(w, tree.min_leaf_sigma());
  put_double(w, tree.max_leaf_sigma());
  w.f64_bits(tree.nodes());
  return serial::wrap(serial::TypeTag::kFalconTree, w.take());
}

TreeRecord decode_tree(std::span<const std::uint8_t> frame,
                       const FalconParams& params) {
  serial::Reader r(serial::unwrap(frame, serial::TypeTag::kFalconTree));
  if (r.u64() != kTreeLayout)
    throw serial::SerialError("state_codec: unknown tree layout version");
  const auto n = static_cast<std::size_t>(checked_degree(r));
  if (n != params.n)
    throw serial::SerialError("state_codec: tree degree mismatch");
  TreeRecord rec;
  rec.f = get_ipoly(r, n);
  rec.g = get_ipoly(r, n);
  const std::size_t h = packed_size(n);
  CVec b00 = get_cvec(r, h);
  CVec b01 = get_cvec(r, h);
  CVec b10 = get_cvec(r, h);
  CVec b11 = get_cvec(r, h);
  const double min_sigma = get_double(r);
  const double max_sigma = get_double(r);
  if (!(min_sigma >= params.sigma_min && min_sigma <= max_sigma &&
        max_sigma <= params.sigma_max))
    throw serial::SerialError("state_codec: implausible leaf sigma range");
  std::vector<double> nodes = get_doubles(r, FalconTree::tree_size(n));
  r.finish();
  check_leaves(nodes.data(), n, min_sigma, max_sigma);
  rec.tree = std::make_shared<FalconTree>(FalconTree::from_parts(
      n, std::move(nodes), std::move(b00), std::move(b01), std::move(b10),
      std::move(b11), min_sigma, max_sigma));
  return rec;
}

std::size_t tree_footprint_bytes(const FalconTree& tree) {
  return sizeof(FalconTree) + tree.nodes().size() * sizeof(double) +
         (tree.b00().capacity() + tree.b01().capacity() +
          tree.b10().capacity() + tree.b11().capacity()) *
             sizeof(cplx);
}

std::vector<std::uint8_t> encode_ntt_key(const NttKeyRecord& rec) {
  const std::size_t n = rec.params.n;
  CGS_CHECK(rec.h.size() == n && rec.h_ntt.size() == n &&
            rec.h_ntt_shoup.size() == n);
  serial::Writer w;
  w.reserve(ntt_key_footprint_bytes(n));
  put_params(w, rec.params);
  put_u32vec(w, rec.h);
  put_u32vec(w, rec.h_ntt);
  put_u32vec(w, rec.h_ntt_shoup);
  return serial::wrap(serial::TypeTag::kNttKey, w.take());
}

NttKeyRecord decode_ntt_key(std::span<const std::uint8_t> frame) {
  serial::Reader r(serial::unwrap(frame, serial::TypeTag::kNttKey));
  NttKeyRecord rec;
  rec.params = get_params(r);
  const std::size_t n = rec.params.n;
  rec.h = get_u32vec(r, n);
  rec.h_ntt = get_u32vec(r, n);
  rec.h_ntt_shoup = get_u32vec(r, n);
  r.finish();
  return rec;
}

std::size_t ntt_key_footprint_bytes(std::size_t n) {
  return 3 * n * sizeof(std::uint32_t) + sizeof(FalconParams) + 64;
}

namespace {

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[i] = kDigits[v & 0xf];
  return s;
}

}  // namespace

std::string tree_state_key(std::uint64_t fingerprint) {
  return "ffldl-" + hex16(fingerprint);
}

std::string ntt_state_key(std::uint64_t fingerprint) {
  return "ntt-" + hex16(fingerprint);
}

}  // namespace cgs::falcon
