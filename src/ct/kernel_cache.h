#pragma once
// Load-or-compile for host-compiled sampler kernels: the one path from a
// synthesized netlist to a CompiledKernel. A kernel's machine code is fixed
// by four inputs — the emitted C, the compiler, the flag rung that built it
// and the CPU -march=native tuned it for — and its cache key hashes exactly
// those, so a codegen change, a compiler upgrade or a different host never
// loads a stale object.
//
// With a persistent directory (SamplerRegistry passes <cache_dir>/kernels)
// a kernel compiles once per machine, not once per process:
//
//   <dir>/<key>.so    the shared object (mode 0600)
//   <dir>/<key>.sum   kKernelDigest frame: key, size and hash64 of the .so
//
// A load opens <key>.so with O_NOFOLLOW and requires a regular file owned
// by geteuid() with no group or other write bit; the directory itself must
// be a real directory (created 0700) that we own and nobody else can write.
// The bytes must match the sidecar's size and hash, and the verified inode
// is then dlopen()ed through /proc/self/fd/N, so nothing can swap the file
// between check and load. Ownership and mode are the security boundary; the
// hash only catches torn or corrupt files. A failed check is a miss —
// recompile, then overwrite — never an error.
//
// A compile stages its source and object in a fresh mkdtemp directory
// inside <dir> (same filesystem, so the final rename is atomic), records
// the digest, fsyncs both files and renames them into place. Without a
// persistent directory the staging directory lives under $TMPDIR and is
// removed as soon as the object is loaded; nothing is persisted.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "ct/synthesis.h"

namespace cgs::ct {

class CompiledKernel;

/// The compile ladder, best first: native, then generic (a compiler
/// without -march=native).
enum class FlagRung { kNative, kGeneric };

/// The emitted C of one kernel: the netlist's entry point at one lane
/// width (bf::emit_c at lanes / 64 words, named kernel_symbol(lanes)).
class KernelSource {
 public:
  KernelSource(const SynthesizedSampler& synth, int lanes);

  /// Content hash of the source text.
  std::uint64_t hash() const { return hash_; }
  /// Writes the source text to `path`; false on an I/O error.
  bool write(const std::string& path) const;
  int lanes() const { return lanes_; }
  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_outputs() const { return num_outputs_; }

 private:
  std::string text_;
  std::uint64_t hash_;
  int lanes_;
  std::size_t num_inputs_, num_outputs_;
};

/// Content key of one kernel build: the source hash, then hash64 of the
/// compiler identity (its `--version` text), the rung and its flags and the
/// CPU signature (CPUID vendor, family/model/stepping, feature leaves 1 and
/// 7 and XCR0 on x86; the core-invariant lines of /proc/cpuinfo elsewhere),
/// as 33 filename-safe characters. Pure.
std::string kernel_cache_key(std::uint64_t source_hash,
                             std::string_view compiler_identity,
                             FlagRung rung, std::string_view cpu_signature);

struct KernelLoad {
  std::shared_ptr<const CompiledKernel> kernel;
  std::size_t bytes = 0;    // size of the shared object
  bool warm_start = false;  // loaded from `dir` rather than compiled
};

/// The kernel for `source`: loaded from `dir` when a verified object for
/// some rung is there, else compiled down the ladder and, when `dir` is a
/// trusted directory, persisted there. An empty `dir` compiles privately
/// and persists nothing. Throws cgs::Error (carrying the compiler's output)
/// when no rung compiles or the object will not load.
KernelLoad load_or_compile_kernel(const KernelSource& source,
                                  const std::string& dir = {});

}  // namespace cgs::ct
