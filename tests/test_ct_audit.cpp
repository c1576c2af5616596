// Constant time by inspection. dudect checks the sampler core
// statistically; this checks the machine code that actually runs. Every
// kernel the registry compiles (its 64- and 256-lane entry points) and an
// out-of-line exp_neg are disassembled with objdump and must be straight
// line: no conditional or indirect jump, no call, and no memory operand
// with an index register — only fixed displacements off the argument
// pointers, the stack and rip. Skipped by name where objdump is missing or
// the host is not x86-64 (the checks read AT&T x86 syntax); the exp_neg
// check also where this test itself is built unoptimized or sanitized.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "ct/compiled_sampler.h"
#include "engine/registry.h"
#include "falcon/samplerz.h"

extern "C" [[gnu::noinline, gnu::used]] double cgs_audit_exp_neg(double x) {
  return cgs::falcon::detail::exp_neg(x);
}

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
    if (conditional || indirect || mnemonic.rfind("call", 0) == 0 ||
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
  return std::nullopt;
}

TEST(MachineCodeAudit, RegistryKernelsAreStraightLine) {
  if (const auto why = skip_reason()) GTEST_SKIP() << *why;
  if (!CompiledKernel::is_available()) GTEST_SKIP() << "no host compiler";
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("cgs-audit-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    engine::SamplerRegistry reg({.cache_dir = dir.string()});
    // The signing kernel, and the convolution bases of a keygen-width and
    // an off-grid raw-Gaussian target.
    (void)reg.kernel(*reg.get(gauss::GaussianParams::sigma_2(128)));
    for (const auto& [sigma, center] : {std::pair{4.05, 0.0}, {19.7, 0.37}})
      (void)reg.kernel(*reg.get(reg.get_recipe(sigma, center).base));
  }
  int kernels = 0;
  for (const auto& entry : fs::directory_iterator(dir / "kernels")) {
    if (entry.path().extension() != ".so") continue;
    ++kernels;
    expect_straight_line(entry.path().string(), "cgs_kernel");
    expect_straight_line(entry.path().string(), "cgs_kernel_w4");
  }
  EXPECT_GE(kernels, 2);
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

}  // namespace
}  // namespace cgs::ct
