// Constant time by inspection. dudect checks the sampler core
// statistically; this checks the machine code that actually runs. Every
// cgs_kernel* entry point each registry kernel exports (the engine's width
// and Table 1's 64 lanes), an out-of-line exp_neg and an out-of-line
// instance of the in-register 512-lane unpack are disassembled with
// objdump and must be straight line: no conditional or indirect jump, no
// call (a jmp to another symbol is a tail call), and no memory operand
// with an index register — only fixed displacements off the argument
// pointers, the stack and rip. Skipped by name where objdump or nm is
// missing or the host is not x86-64 (the checks read AT&T x86 syntax); the
// exp_neg and unpack checks also where this test itself is built
// unoptimized or sanitized.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "ct/batch_sampler.h"
#include "ct/compiled_sampler.h"
#include "ct/lane_unpack.h"
#include "engine/registry.h"
#include "falcon/samplerz.h"
#include "prng/isa.h"

extern "C" [[gnu::noinline, gnu::used]] double cgs_audit_exp_neg(double x) {
  return cgs::falcon::detail::exp_neg(x);
}

#if defined(__x86_64__)
// The widest byte-path instance: seven planes.
extern "C" [[gnu::noinline, gnu::used,
             gnu::target("avx512f,avx512bw,avx512vbmi")]] void
cgs_audit_unpack_in_register(const std::uint64_t* planes,
                             const std::uint64_t* signs, std::int32_t* out) {
  cgs::ct::unpack_in_register<7>(planes, signs, out);
}
#endif

namespace cgs::ct {
namespace {

namespace fs = std::filesystem;

/// Stdout of `command`, or nullopt when it did not exit 0.
std::optional<std::string> run(const std::string& command) {
  FILE* pipe = ::popen(command.c_str(), "r");
  if (!pipe) return std::nullopt;
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
    out.append(buf, n);
  return ::pclose(pipe) == 0 ? std::optional(out) : std::nullopt;
}

struct Audit {
  std::size_t instructions = 0;
  std::vector<std::string> violations;
};

/// Disassembles `symbol` in `file` and lists every instruction that
/// breaks straight-line, fixed-address code. Padding nops are skipped.
Audit audit(const std::string& file, const std::string& symbol) {
  Audit a;
  const auto text = run("objdump -d --no-show-raw-insn --disassemble=" +
                        symbol + " " + file + " 2>/dev/null");
  if (!text) {
    a.violations.push_back("objdump failed on " + file);
    return a;
  }
  static const std::regex kInsn(R"(^\s*[0-9a-f]+:\s+(\S.*)$)");
  static const std::regex kPrefix(
      R"(^(bnd|notrack|rep|repz|repnz|lock|cs|ds|data16)\s+)");
  static const std::regex kIndexed(R"(\((%\w+)?,%\w+)");
  std::istringstream lines(*text);
  for (std::string line; std::getline(lines, line);) {
    std::smatch m;
    if (!std::regex_match(line, m, kInsn)) continue;
    std::string insn = m[1].str();
    insn = insn.substr(0, insn.find('#'));  // objdump's address comment
    if (insn.find("nop") != std::string::npos) continue;
    ++a.instructions;
    const std::string op = std::regex_replace(insn, kPrefix, "");
    const std::string mnemonic = op.substr(0, op.find_first_of(" \t"));
    const std::string operands =
        op.size() > mnemonic.size() ? op.substr(mnemonic.size()) : "";
    const bool jump = mnemonic[0] == 'j' || mnemonic.rfind("loop", 0) == 0;
    const bool conditional = jump && mnemonic != "jmp";
    const bool indirect =
        mnemonic == "jmp" && operands.find('*') != std::string::npos;
    // A jmp to another symbol is a tail call: the code it runs is not
    // the code audited here.
    const bool tail_call =
        mnemonic == "jmp" && operands.find('<') != std::string::npos &&
        operands.find('<' + symbol + '>') == std::string::npos &&
        operands.find('<' + symbol + '+') == std::string::npos;
    if (conditional || indirect || tail_call ||
        mnemonic.rfind("call", 0) == 0 ||
        std::regex_search(operands, kIndexed))
      a.violations.push_back(symbol + ": " + insn);
  }
  return a;
}

void expect_straight_line(const std::string& file, const std::string& symbol) {
  const Audit a = audit(file, symbol);
  EXPECT_GT(a.instructions, 0u) << symbol << " not found in " << file;
  for (const std::string& v : a.violations) ADD_FAILURE() << file << ": " << v;
}

std::optional<std::string> skip_reason() {
#if !defined(__x86_64__)
  return "machine-code audit reads x86-64 disassembly only";
#endif
  if (!run("objdump --version >/dev/null 2>&1")) return "objdump not found";
  if (!run("nm --version >/dev/null 2>&1")) return "nm not found";
  return std::nullopt;
}

/// The cgs_kernel* symbols `file` exports.
std::vector<std::string> kernel_symbols(const std::string& file) {
  std::vector<std::string> out;
  const auto text = run("nm -D --defined-only " + file + " 2>/dev/null");
  if (!text) return out;
  static const std::regex kSymbol(R"(\s(cgs_kernel\w*)$)");
  std::istringstream lines(*text);
  for (std::string line; std::getline(lines, line);) {
    std::smatch m;
    if (std::regex_search(line, m, kSymbol)) out.push_back(m[1].str());
  }
  return out;
}

TEST(MachineCodeAudit, RegistryKernelsAreStraightLine) {
  if (const auto why = skip_reason()) GTEST_SKIP() << *why;
  if (!CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("cgs-audit-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    engine::SamplerRegistry reg({.cache_dir = dir.string()});
    // The signing kernel at every width something serves (Table 1's 64
    // lanes, the engine's 256 on AVX2 hosts and 512 on AVX-512 VBMI
    // hosts), and the convolution bases of a keygen-width and an off-grid
    // raw-Gaussian target at this host's engine width.
    const auto sigma2 = reg.get(gauss::GaussianParams::sigma_2(128));
    for (const int lanes : {64, 256, 512}) (void)reg.kernel(*sigma2, lanes);
    for (const auto& [sigma, center] : {std::pair{4.05, 0.0}, {19.7, 0.37}})
      (void)reg.kernel(*reg.get(reg.get_recipe(sigma, center).base),
                       host_kernel_lanes());
  }
  int kernels = 0;
  for (const auto& entry : fs::directory_iterator(dir / "kernels")) {
    if (entry.path().extension() != ".so") continue;
    ++kernels;
    const std::string file = entry.path().string();
    const std::vector<std::string> symbols = kernel_symbols(file);
    EXPECT_FALSE(symbols.empty()) << file << " exports no cgs_kernel*";
    for (const std::string& symbol : symbols)
      expect_straight_line(file, symbol);
  }
  EXPECT_GE(kernels, 4);  // the two targets may share a base
  fs::remove_all(dir);
}

TEST(MachineCodeAudit, ExpNegIsStraightLine) {
  if (const auto why = skip_reason()) GTEST_SKIP() << *why;
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "this build's exp_neg is unoptimized or instrumented";
#endif
  EXPECT_EQ(cgs_audit_exp_neg(0.0), 1.0);  // keeps the instance referenced
  expect_straight_line(fs::read_symlink("/proc/self/exe").string(),
                       "cgs_audit_exp_neg");
}

TEST(MachineCodeAudit, InRegisterUnpackIsStraightLine) {
  if (const auto why = skip_reason()) GTEST_SKIP() << *why;
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "this build's unpack is unoptimized or instrumented";
#endif
#if defined(__x86_64__)
  // Where the host runs it, the instance must also agree with the generic
  // unpack (the instance is audited either way).
  if (prng::host_vector_isa() >= prng::VectorIsa::kAvx512vbmi) {
    std::uint64_t planes[8 * 7], signs[8];
    for (std::size_t w = 0; w < 8 * 7; ++w)
      planes[w] = 0x9e3779b97f4a7c15ull * (w + 1);
    for (std::size_t g = 0; g < 8; ++g) signs[g] = planes[g] ^ planes[g + 8];
    std::int32_t got[512], want[512];
    cgs_audit_unpack_in_register(planes, signs, got);
    unpack_batch<Word512>(planes, 7, signs, want);
    EXPECT_TRUE(std::equal(got, got + 512, want));
  }
  expect_straight_line(fs::read_symlink("/proc/self/exe").string(),
                       "cgs_audit_unpack_in_register");
#endif
}

}  // namespace
}  // namespace cgs::ct
