#include "bf/codegen.h"

#include <sstream>
#include <vector>

namespace cgs::bf {

std::string emit_c(const Netlist& nl, const std::string& name, int words) {
  CGS_CHECK_MSG(words == 1 || words == 4 || words == 8,
                "emit_c: " << words << " words per lane");
  const std::string w = std::to_string(words);
  const std::string word = words == 1 ? "uint64_t" : "cgs_w" + w;
  const std::string zero = words == 1 ? "UINT64_C(0)" : "((" + word + "){0})";
  // The lane word holding netlist bit k of `array`.
  const auto at = [&](const char* array, std::size_t k, const char* cv) {
    const std::string i = std::to_string(static_cast<std::size_t>(words) * k);
    return words == 1 ? std::string(array) + "[" + i + "]"
                      : "*(" + std::string(cv) + word + "*)(" + array + " + " +
                            i + ")";
  };

  std::ostringstream os;
  os << "#include <stdint.h>\n\n"
     << "/* Auto-generated constant-time bit-sliced sampler core, "
     << 64 * words << " lanes";
  if (words > 1)
    os << " on " << w << "x64-bit vector words\n * (GCC vector extensions)";
  os << ".\n * " << nl.stats() << "\n"
     << " * Straight-line code: no branches, no table lookups. */\n";
  if (words > 1)
    os << "typedef uint64_t " << word << " __attribute__((vector_size("
       << 8 * words << "), aligned(8)));\n\n";
  os << "void " << name << "(const uint64_t in[" << words * nl.num_inputs()
     << "], uint64_t out[" << words * nl.outputs().size() << "]) {\n";

  // Each node's C expression. Inputs, and NOTs of them, are not declared:
  // each use reloads the word from `in` (a fixed offset off the argument
  // pointer), so no input stays live across the whole gate list. Hoisted,
  // the 128 input words of a σ=2 kernel outlive the register file and the
  // kernel spills.
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
      expr[i] = n.op == Op::kInput
                    ? at("in", static_cast<std::size_t>(n.a), "const ")
                    : "~" + ref(n.a);
      continue;
    }
    expr[i] = 't';
    expr[i] += std::to_string(i);
    os << "  const " << word << " " << expr[i] << " = ";
    switch (n.op) {
      case Op::kConst0: os << zero; break;
      case Op::kConst1: os << "~" << zero; break;
      case Op::kInput:  break;
      case Op::kNot:    os << "~" << ref(n.a); break;
      case Op::kAnd:    os << ref(n.a) << " & " << ref(n.b); break;
      case Op::kOr:     os << ref(n.a) << " | " << ref(n.b); break;
      case Op::kXor:    os << ref(n.a) << " ^ " << ref(n.b); break;
    }
    os << ";\n";
  }
  const auto& outs = nl.outputs();
  for (std::size_t o = 0; o < outs.size(); ++o)
    os << "  " << at("out", o, "") << " = "
       << expr[static_cast<std::size_t>(outs[o])] << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace cgs::bf
