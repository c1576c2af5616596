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

/// The compile ladder, best first: native with the 256-lane form, generic
/// with it (a compiler without -march=native), the 64-lane form alone (a
/// compiler without GCC vector extensions).
enum class FlagRung { kNative, kGeneric, kScalar };

/// The emitted C of one kernel: the 64-lane function, followed by its
/// 256-lane form for the native and generic rungs.
class KernelSource {
 public:
  explicit KernelSource(const SynthesizedSampler& synth);

  /// Content hash of the rung's source text.
  std::uint64_t hash(FlagRung rung) const;
  /// Writes the rung's source text to `path`; false on an I/O error.
  bool write(FlagRung rung, const std::string& path) const;
  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_outputs() const { return num_outputs_; }

 private:
  std::string scalar_, wide_;  // the 64-lane function; its 256-lane form
  std::uint64_t scalar_hash_, wide_hash_;
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

/// The key `source` is memoized under in this process: its native-rung
/// key for this host's compiler (`cc`, else `gcc`, probed once per process)
/// and CPU. Throws cgs::Error when there is no host compiler.
std::string kernel_key(const KernelSource& source);

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
