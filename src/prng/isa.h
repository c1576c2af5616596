#pragma once
// The one CPU-feature dispatch of the hand-vectorized kernels (the ChaCha20
// keystream core, the four-lane Keccak permutation, the 512-lane unpack in
// ct/batch_sampler) and of the engine's lane width. Each kernel is compiled
// once per vector ISA with a function-level target attribute and called
// through a pointer picked from host_vector_isa(): no IFUNC resolver, so
// sanitizer runtimes (TSan cannot run resolvers) see the same path as
// production.

namespace cgs::prng {

/// Ordered: a host supporting one ISA supports every earlier one.
/// kAvx512vbmi is AVX-512F with the BW and VBMI extensions (byte-granular
/// arithmetic and the vpermb byte permute).
enum class VectorIsa { kGeneric, kAvx2, kAvx512f, kAvx512vbmi };

/// The widest vector ISA the kernels may use here, probed once per process
/// with __builtin_cpu_supports (which also checks that the OS saves the
/// wider registers). Always kGeneric off x86-64.
inline VectorIsa host_vector_isa() {
#if defined(__x86_64__)
  static const VectorIsa isa = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
      return __builtin_cpu_supports("avx512bw") &&
                     __builtin_cpu_supports("avx512vbmi")
                 ? VectorIsa::kAvx512vbmi
                 : VectorIsa::kAvx512f;
    }
    if (__builtin_cpu_supports("avx2")) return VectorIsa::kAvx2;
    return VectorIsa::kGeneric;
  }();
  return isa;
#else
  return VectorIsa::kGeneric;
#endif
}

}  // namespace cgs::prng
