#include "bf/codegen.h"

#include <sstream>
#include <vector>

namespace cgs::bf {

namespace {

// Shared emitter: `word` is the lane-word C type, `zero`/`ones` its
// constants, `load` renders the input expression for netlist input k.
// Returns each node's C expression. Inputs, and NOTs of them, are not
// declared: each use reloads the word from `in` (a fixed offset off the
// argument pointer), so no input stays live across the whole gate list.
// Hoisted, the 128 input words of a σ=2 kernel outlive the register file
// and the kernel spills.
template <typename LoadFn>
std::vector<std::string> emit_body(std::ostringstream& os, const Netlist& nl,
                                   const std::string& word,
                                   const std::string& zero,
                                   const std::string& ones, LoadFn load) {
  const auto& nodes = nl.nodes();
  std::vector<std::string> expr(nodes.size());
  std::vector<bool> inlined(nodes.size(), false);
  const auto ref = [&](std::int32_t id) -> const std::string& {
    return expr[static_cast<std::size_t>(id)];
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.op == Op::kInput ||
        (n.op == Op::kNot && inlined[static_cast<std::size_t>(n.a)])) {
      inlined[i] = true;
      // Unary operators bind tightest: no parentheses needed.
      if (n.op == Op::kInput) {
        expr[i] = load(n.a);
      } else {
        expr[i] = '~';
        expr[i] += ref(n.a);
      }
      continue;
    }
    expr[i] = 't';
    expr[i] += std::to_string(i);
    os << "  const " << word << " " << expr[i] << " = ";
    switch (n.op) {
      case Op::kConst0: os << zero; break;
      case Op::kConst1: os << ones; break;
      case Op::kInput:  break;
      case Op::kNot:    os << "~" << ref(n.a); break;
      case Op::kAnd:    os << ref(n.a) << " & " << ref(n.b); break;
      case Op::kOr:     os << ref(n.a) << " | " << ref(n.b); break;
      case Op::kXor:    os << ref(n.a) << " ^ " << ref(n.b); break;
    }
    os << ";\n";
  }
  return expr;
}

}  // namespace

std::string emit_c(const Netlist& nl, const std::string& name) {
  std::ostringstream os;
  os << "#include <stdint.h>\n\n"
     << "/* Auto-generated constant-time bit-sliced sampler core.\n"
     << " * " << nl.stats() << "\n"
     << " * Straight-line code: no branches, no table lookups. */\n"
     << "void " << name << "(const uint64_t in[" << nl.num_inputs()
     << "], uint64_t out[" << nl.outputs().size() << "]) {\n";
  const auto expr =
      emit_body(os, nl, "uint64_t", "UINT64_C(0)", "~UINT64_C(0)",
                [](int k) { return "in[" + std::to_string(k) + "]"; });
  const auto& outs = nl.outputs();
  for (std::size_t o = 0; o < outs.size(); ++o)
    os << "  out[" << o << "] = " << expr[static_cast<std::size_t>(outs[o])]
       << ";\n";
  os << "}\n";
  return os.str();
}

std::string emit_c_wide(const Netlist& nl, const std::string& name) {
  std::ostringstream os;
  os << "#include <stdint.h>\n\n"
     << "/* Auto-generated constant-time bit-sliced sampler core, 256-lane\n"
     << " * form: the same straight-line netlist on 4x64-bit vector words\n"
     << " * (GCC vector extensions; compiles to AVX2 where available).\n"
     << " * " << nl.stats() << " */\n"
     << "typedef uint64_t cgs_w4 "
        "__attribute__((vector_size(32), aligned(8)));\n\n"
     << "void " << name << "(const uint64_t in[" << 4 * nl.num_inputs()
     << "], uint64_t out[" << 4 * nl.outputs().size() << "]) {\n";
  const auto expr = emit_body(
      os, nl, "cgs_w4", "((cgs_w4){0, 0, 0, 0})", "~((cgs_w4){0, 0, 0, 0})",
      [](int k) {
        return "*(const cgs_w4*)(in + " + std::to_string(4 * k) + ")";
      });
  const auto& outs = nl.outputs();
  for (std::size_t o = 0; o < outs.size(); ++o)
    os << "  *(cgs_w4*)(out + " << 4 * o
       << ") = " << expr[static_cast<std::size_t>(outs[o])] << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace cgs::bf
