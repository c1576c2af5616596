#pragma once
// The one CPU-feature dispatch of the prng kernels (the ChaCha20 keystream
// core, the four-lane Keccak permutation). Each kernel is compiled once per
// vector ISA with a function-level target attribute and called through a
// pointer picked from host_vector_isa(): no IFUNC resolver, so sanitizer
// runtimes (TSan cannot run resolvers) see the same path as production.

namespace cgs::prng {

/// Ordered: a host supporting one ISA supports every earlier one.
enum class VectorIsa { kGeneric, kAvx2, kAvx512f };

/// The widest vector ISA the prng kernels may use here, probed once per
/// process with __builtin_cpu_supports (which also checks that the OS
/// saves the wider registers). Always kGeneric off x86-64.
inline VectorIsa host_vector_isa() {
#if defined(__x86_64__)
  static const VectorIsa isa = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return VectorIsa::kAvx512f;
    if (__builtin_cpu_supports("avx2")) return VectorIsa::kAvx2;
    return VectorIsa::kGeneric;
  }();
  return isa;
#else
  return VectorIsa::kGeneric;
#endif
}

}  // namespace cgs::prng
