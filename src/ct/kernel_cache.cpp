#include "ct/kernel_cache.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bf/codegen.h"
#include "common/check.h"
#include "ct/compiled_sampler.h"
#include "serial/serial.h"

extern char** environ;

namespace cgs::ct {

namespace {

namespace fs = std::filesystem;

constexpr FlagRung kRungs[] = {FlagRung::kNative, FlagRung::kGeneric};

// Compiler output kept for the error message; the rest is drained unread.
constexpr std::size_t kMaxOutput = 16 * 1024;

/// The host compiler and its `--version` text (the compiler identity the
/// cache key covers).
struct HostCompiler {
  std::string program;
  std::string identity;
};

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }
  ~Fd() { reset(); }

  int get() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  explicit operator bool() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Runs `args` (PATH lookup, no shell) with stdout and stderr captured into
/// `output`. Returns the exit status, or -1 if it could not run.
int run_captured(const std::vector<std::string>& args, std::string& output) {
  output.clear();
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      ::posix_spawnp(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (spawned != 0) {
    ::close(fds[0]);
    return -1;
  }
  // Drain to EOF before waiting: a child blocked on a full pipe never exits.
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    output.append(buf, std::min(static_cast<std::size_t>(n),
                                kMaxOutput - std::min(kMaxOutput, output.size())));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

#if defined(__x86_64__) || defined(__i386__)
std::string probe_cpu() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(0, &a, &b, &c, &d)) return "x86:no-cpuid";
  const unsigned max_leaf = a;
  char vendor[13] = {};
  std::memcpy(vendor, &b, 4);
  std::memcpy(vendor + 4, &d, 4);
  std::memcpy(vendor + 8, &c, 4);
  std::ostringstream os;
  os << "x86:" << vendor << std::hex;
  __get_cpuid(1, &a, &b, &c, &d);
  // Leaf 1 EBX holds the APIC id, which differs per core: left out.
  os << ":1:" << a << "." << c << "." << d;
  const bool osxsave = (c >> 27) & 1u;
  if (max_leaf >= 7) {
    __get_cpuid_count(7, 0, &a, &b, &c, &d);
    os << ":7:" << b << "." << c << "." << d;
  }
  if (osxsave) {
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    os << ":xcr0:" << hi << "." << lo;
  }
  return os.str();
}
#else
std::string probe_cpu() {
  // Every line that does not vary per core or over time, deduplicated, so
  // the signature is the same whichever core reads it.
  static const std::set<std::string> kVarying = {
      "processor", "cpu mhz",   "bogomips",  "core id", "apicid",
      "initial apicid", "physical id", "siblings", "cpu cores"};
  std::set<std::string> lines;
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    std::string key = line.substr(0, line.find(':'));
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t'))
      key.pop_back();
    for (char& ch : key) ch = static_cast<char>(std::tolower(ch));
    if (!key.empty() && !kVarying.count(key)) lines.insert(line);
  }
  std::string sig = "cpuinfo";
  for (const std::string& line : lines) sig += "\n" + line;
  return sig;
}
#endif

std::vector<std::string> rung_flags(FlagRung rung) {
  // The kernel runs on the host it was compiled on — exactly the case
  // -march=native exists for (the vector forms run on AVX2 / AVX-512).
  // -Og, not -O2: a kernel is one straight-line gate list, and GCC's
  // temporary expression replacement (-O1 and up) sinks each gate into its
  // use, stretching live ranges until the kernel spills. Together with the
  // emitter's short input live ranges (bf/codegen.cpp), the σ=2 kernel
  // evaluates ~3.5x faster than at -O2 and compiles ~6x faster.
  std::vector<std::string> flags;
  if (rung == FlagRung::kNative) flags.emplace_back("-march=native");
  for (const char* f : {"-Og", "-shared", "-fPIC", "-w"}) flags.emplace_back(f);
  return flags;
}

std::uint64_t hash_text(std::string_view text) {
  return serial::hash64(std::span(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

/// Owned by us, not writable by group or others, and of the wanted type.
bool trusted(const struct stat& st, mode_t type) {
  return (st.st_mode & S_IFMT) == type && st.st_uid == ::geteuid() &&
         (st.st_mode & (S_IWGRP | S_IWOTH)) == 0;
}

/// The persistent kernel directory, created 0700 if missing; an invalid fd
/// when `dir` is empty, cannot be made, or is not trusted (a symlink,
/// someone else's, group or world writable). Never repaired: an untrusted
/// directory is neither read nor written.
Fd open_kernel_dir(const std::string& dir) {
  if (dir.empty()) return {};
  std::error_code ec;
  fs::create_directories(fs::path(dir).parent_path(), ec);
  ::mkdir(dir.c_str(), 0700);
  Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_NOFOLLOW | O_CLOEXEC));
  struct stat st{};
  if (!fd || ::fstat(fd.get(), &st) != 0 || !trusted(st, S_IFDIR)) return {};
  return fd;
}

/// Exactly `size` bytes from the start of `fd`; nullopt on an I/O error or
/// a shorter file.
std::optional<std::vector<std::uint8_t>> read_exact(int fd, std::size_t size) {
  std::vector<std::uint8_t> out(size);
  for (std::size_t got = 0; got < size;) {
    const ssize_t n = ::pread(fd, out.data() + got, size - got,
                              static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    got += static_cast<std::size_t>(n);
  }
  return out;
}

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
  return true;
}

/// A trusted regular file under `dir_fd`, opened without following a
/// symlink; invalid on any failed check.
Fd open_trusted(int dir_fd, const std::string& name, struct stat& st) {
  Fd fd(::openat(dir_fd, name.c_str(), O_RDONLY | O_NOFOLLOW | O_CLOEXEC));
  if (!fd || ::fstat(fd.get(), &st) != 0 || !trusted(st, S_IFREG)) return {};
  return fd;
}

struct Digest {
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
};

std::vector<std::uint8_t> encode_digest(const std::string& key,
                                        const Digest& d) {
  serial::Writer w;
  w.str(key);
  w.u64(d.size);
  w.u64(d.hash);
  return serial::wrap(serial::TypeTag::kKernelDigest, w.take());
}

std::optional<Digest> read_digest(int dir_fd, const std::string& key) {
  constexpr off_t kMaxSidecar = 4096;
  struct stat st{};
  const Fd fd = open_trusted(dir_fd, key + ".sum", st);
  if (!fd || st.st_size > kMaxSidecar) return std::nullopt;
  const auto bytes = read_exact(fd.get(), static_cast<std::size_t>(st.st_size));
  if (!bytes) return std::nullopt;
  try {
    serial::Reader r(serial::unwrap(*bytes, serial::TypeTag::kKernelDigest));
    if (r.str() != key) return std::nullopt;  // misfiled sidecar
    Digest d;
    d.size = r.u64();
    d.hash = r.u64();
    r.finish();
    return d;
  } catch (const serial::SerialError&) {
    return std::nullopt;
  }
}

// Every kernel object this process has dlopen()ed, by inode. glibc names an
// object by the path it was opened under, answers a later dlopen() of that
// name with the old object, and folds a second open of a loaded inode into
// the first (adding the new name to it). So a "/proc/self/fd/N" name must
// never outlive fd N: each inode is dlopen()ed once and refcounted here,
// and its fd stays open until the dlclose.
class LoadedObjects {
 public:
  static LoadedObjects& instance() {
    // Leaked: kernels held by static objects may be released after exit().
    static auto* table = new LoadedObjects;
    return *table;
  }
  LoadedObjects(const LoadedObjects&) = delete;
  LoadedObjects& operator=(const LoadedObjects&) = delete;

  /// The loaded object for `fd`'s inode (taking over `fd` if this is its
  /// first load); null if dlopen() rejects it.
  std::shared_ptr<void> load(Fd fd, const struct stat& st) {
    const Id id{st.st_dev, st.st_ino};
    std::lock_guard<std::mutex> lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      const std::string name = "/proc/self/fd/" + std::to_string(fd.get());
      void* handle = ::dlopen(name.c_str(), RTLD_NOW | RTLD_LOCAL);
      if (!handle) return nullptr;
      it = objects_.emplace(id, Entry{handle, fd.release(), 0}).first;
    }
    ++it->second.refs;
    return std::shared_ptr<void>(it->second.handle,
                                 [this, id](void*) { release(id); });
  }

 private:
  using Id = std::pair<dev_t, ino_t>;
  struct Entry {
    void* handle;
    int fd;
    std::size_t refs;
  };

  void release(const Id& id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = objects_.find(id);
    if (--it->second.refs > 0) return;
    ::dlclose(it->second.handle);
    ::close(it->second.fd);
    objects_.erase(it);
  }

  LoadedObjects() = default;

  std::mutex mu_;
  std::map<Id, Entry> objects_;  // guarded by mu_
};

KernelLoad bind(std::shared_ptr<void> object, const KernelSource& source,
                std::size_t bytes, bool warm_start) {
  return {std::make_shared<const CompiledKernel>(
              std::move(object), source.lanes(), source.num_inputs(),
              source.num_outputs()),
          bytes, warm_start};
}

/// The verified object for `key` in the kernel directory, or nullopt on
/// any failed check (a miss).
std::optional<KernelLoad> try_load(int dir_fd, const std::string& key,
                                   const KernelSource& source) {
  struct stat st{};
  Fd so = open_trusted(dir_fd, key + ".so", st);
  if (!so) return std::nullopt;
  const auto digest = read_digest(dir_fd, key);
  if (!digest || digest->size != static_cast<std::uint64_t>(st.st_size))
    return std::nullopt;
  const auto bytes = read_exact(so.get(), static_cast<std::size_t>(digest->size));
  if (!bytes || serial::hash64(*bytes) != digest->hash) return std::nullopt;
  auto object = LoadedObjects::instance().load(std::move(so), st);
  if (!object) return std::nullopt;
  return bind(std::move(object), source, bytes->size(), /*warm_start=*/true);
}

/// A fresh mkdtemp directory for one compile, removed with everything left
/// in it on destruction.
class Staging {
 public:
  explicit Staging(const std::string& parent, const char* prefix) {
    std::string tmpl = parent + "/" + prefix + "XXXXXX";
    if (::mkdtemp(tmpl.data())) path_ = tmpl;
  }
  ~Staging() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  Staging(const Staging&) = delete;
  Staging& operator=(const Staging&) = delete;

  bool ok() const { return !path_.empty(); }
  std::string file(const char* name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Records the digest of the staged object next to it, fsyncs both and
/// renames them into the kernel directory. Best effort: a failure leaves at
/// worst a miss for the next process.
void persist(int dir_fd, const Staging& stage, const std::string& key,
             int so_fd, std::size_t size) {
  const auto bytes = read_exact(so_fd, size);
  const std::string sum = stage.file("k.sum");
  const Fd out(::open(sum.c_str(),
                      O_WRONLY | O_CREAT | O_EXCL | O_NOFOLLOW | O_CLOEXEC,
                      0600));
  if (!bytes || !out ||
      !write_all(out.get(), encode_digest(key, {bytes->size(),
                                                serial::hash64(*bytes)})) ||
      ::fsync(out.get()) != 0 || ::fsync(so_fd) != 0)
    return;
  if (::renameat(AT_FDCWD, stage.file("k.so").c_str(), dir_fd,
                 (key + ".so").c_str()) != 0 ||
      ::renameat(AT_FDCWD, sum.c_str(), dir_fd, (key + ".sum").c_str()) != 0)
    return;
  ::fsync(dir_fd);
}

/// Probed once per process; null when neither `cc` nor `gcc` runs.
const HostCompiler* host_compiler() {
  static const std::optional<HostCompiler> probed =
      []() -> std::optional<HostCompiler> {
    for (const char* program : {"cc", "gcc"}) {
      std::string version;
      if (run_captured({program, "--version"}, version) == 0)
        return HostCompiler{program, version};
    }
    return std::nullopt;
  }();
  return probed ? &*probed : nullptr;
}

const HostCompiler& require_compiler() {
  const HostCompiler* cc = host_compiler();
  if (!cc) throw Error("kernel: no host compiler (cc or gcc)");
  return *cc;
}

const std::string& cpu_signature() {
  static const std::string sig = probe_cpu();
  return sig;
}

}  // namespace

bool CompiledKernel::is_available() { return host_compiler() != nullptr; }

KernelSource::KernelSource(const SynthesizedSampler& synth, int lanes)
    : text_(bf::emit_c(synth.netlist, kernel_symbol(lanes), lanes / 64)),
      hash_(hash_text(text_)),
      lanes_(lanes),
      num_inputs_(static_cast<std::size_t>(synth.netlist.num_inputs())),
      num_outputs_(synth.netlist.outputs().size()) {}

bool KernelSource::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text_;
  return out.good();
}

std::string kernel_cache_key(std::uint64_t source_hash,
                             std::string_view compiler_identity,
                             FlagRung rung, std::string_view cpu_signature) {
  std::string build(compiler_identity);
  build += '\0';
  build += std::to_string(static_cast<int>(rung));
  for (const std::string& flag : rung_flags(rung)) build += " " + flag;
  build += '\0';
  build += cpu_signature;
  char key[40];
  std::snprintf(key, sizeof key, "%016llx-%016llx",
                static_cast<unsigned long long>(source_hash),
                static_cast<unsigned long long>(hash_text(build)));
  return key;
}

KernelLoad load_or_compile_kernel(const KernelSource& source,
                                  const std::string& dir) {
  const HostCompiler& cc = require_compiler();
  const auto key_for = [&](FlagRung rung) {
    return kernel_cache_key(source.hash(), cc.identity, rung, cpu_signature());
  };

  Fd kernel_dir = open_kernel_dir(dir);
  if (kernel_dir)
    for (FlagRung rung : kRungs)
      if (auto hit = try_load(kernel_dir.get(), key_for(rung), source))
        return std::move(*hit);

  // Stage next to the final location so the rename is atomic; without a
  // usable kernel directory, privately under $TMPDIR and never persisted.
  std::optional<Staging> stage;
  if (kernel_dir) {
    stage.emplace(dir, ".stage-");
    if (!stage->ok()) {
      stage.reset();
      kernel_dir.reset();
    }
  }
  if (!stage) {
    std::error_code ec;
    const fs::path tmp = fs::temp_directory_path(ec);
    if (ec) throw Error("kernel: no temporary directory: " + ec.message());
    stage.emplace(tmp.string(), "cgs-kernel-");
  }
  if (!stage->ok())
    throw Error("kernel: cannot create a staging directory: " +
                std::string(std::strerror(errno)));

  // Down the ladder: a compiler without -march=native gets the generic
  // rung. One without GCC vector extensions fails both on a vector form.
  const std::string c_path = stage->file("k.c");
  const std::string so_path = stage->file("k.so");
  if (!source.write(c_path)) throw Error("kernel: cannot write " + c_path);
  std::string output;
  std::optional<FlagRung> built;
  for (FlagRung rung : kRungs) {
    std::vector<std::string> args{cc.program};
    for (std::string& flag : rung_flags(rung)) args.push_back(std::move(flag));
    args.insert(args.end(), {"-o", so_path, c_path});
    if (run_captured(args, output) == 0) {
      built = rung;
      break;
    }
  }
  if (!built) throw Error("kernel compilation failed:\n" + output);

  struct stat st{};
  Fd so(::open(so_path.c_str(), O_RDONLY | O_NOFOLLOW | O_CLOEXEC));
  if (!so || ::fchmod(so.get(), 0600) != 0 || ::fstat(so.get(), &st) != 0 ||
      !trusted(st, S_IFREG))
    throw Error("kernel: compiled object missing or not ours: " + so_path);
  const auto size = static_cast<std::size_t>(st.st_size);
  if (kernel_dir)
    persist(kernel_dir.get(), *stage, key_for(*built), so.get(), size);

  auto object = LoadedObjects::instance().load(std::move(so), st);
  if (!object) {
    const char* why = ::dlerror();
    throw Error(std::string("kernel: dlopen failed: ") + (why ? why : "?"));
  }
  return bind(std::move(object), source, size, /*warm_start=*/false);
}

}  // namespace cgs::ct
