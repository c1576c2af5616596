#include "bf/netlist.h"

#include <sstream>

namespace cgs::bf {

Netlist Netlist::from_parts(int num_inputs, std::vector<Node> nodes,
                            std::vector<std::int32_t> outputs) {
  CGS_CHECK_MSG(num_inputs >= 0, "netlist: negative input count");
  const auto size = static_cast<std::int32_t>(nodes.size());
  for (std::int32_t i = 0; i < size; ++i) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    switch (n.op) {
      case Op::kConst0:
      case Op::kConst1:
        break;
      case Op::kInput:
        CGS_CHECK_MSG(n.a >= 0 && n.a < num_inputs,
                      "netlist: input index out of range");
        break;
      case Op::kNot:
        CGS_CHECK_MSG(n.a >= 0 && n.a < i,
                      "netlist: NOT operand not an earlier node");
        break;
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
        CGS_CHECK_MSG(n.a >= 0 && n.a < i && n.b >= 0 && n.b < i,
                      "netlist: binary operand not an earlier node");
        break;
      default:
        CGS_CHECK_MSG(false, "netlist: unknown op");
    }
  }
  for (std::int32_t o : outputs)
    CGS_CHECK_MSG(o >= 0 && o < size, "netlist: output id out of range");
  Netlist nl;
  nl.num_inputs_ = num_inputs;
  nl.nodes_ = std::move(nodes);
  nl.outputs_ = std::move(outputs);
  return nl;
}

std::size_t Netlist::op_count() const {
  std::size_t n = 0;
  for (const Node& node : nodes_)
    if (node.op == Op::kNot || node.op == Op::kAnd || node.op == Op::kOr ||
        node.op == Op::kXor)
      ++n;
  return n;
}

std::string Netlist::stats() const {
  std::size_t cnt[7] = {0};
  for (const Node& n : nodes_) ++cnt[static_cast<int>(n.op)];
  std::ostringstream os;
  os << "nodes=" << nodes_.size() << " and=" << cnt[int(Op::kAnd)]
     << " or=" << cnt[int(Op::kOr)] << " xor=" << cnt[int(Op::kXor)]
     << " not=" << cnt[int(Op::kNot)] << " inputs=" << num_inputs_
     << " outputs=" << outputs_.size();
  return os.str();
}

std::vector<int> Netlist::eval_bits(const std::vector<int>& input_bits) const {
  CGS_CHECK(input_bits.size() == static_cast<std::size_t>(num_inputs_));
  std::vector<std::uint64_t> in(input_bits.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = input_bits[i] ? ~std::uint64_t(0) : 0;
  std::vector<std::uint64_t> out(outputs_.size()), scratch(nodes_.size());
  eval(in.data(), out.data(), scratch.data());
  std::vector<int> bits(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) bits[i] = out[i] & 1u;
  return bits;
}

NetlistBuilder::NetlistBuilder(int num_inputs, bool enable_cse)
    : cse_(enable_cse) {
  CGS_CHECK(num_inputs >= 0);
  nl_.num_inputs_ = num_inputs;
  // Node 0/1: the constants; inputs next, so ids are stable and cheap.
  nl_.nodes_.push_back({Op::kConst0, -1, -1});
  nl_.nodes_.push_back({Op::kConst1, -1, -1});
  for (int i = 0; i < num_inputs; ++i)
    nl_.nodes_.push_back({Op::kInput, i, -1});
}

std::int32_t NetlistBuilder::const0() { return 0; }
std::int32_t NetlistBuilder::const1() { return 1; }

std::int32_t NetlistBuilder::input(int i) {
  CGS_CHECK(i >= 0 && i < nl_.num_inputs_);
  return 2 + i;
}

std::int32_t NetlistBuilder::emit(Op op, std::int32_t a, std::int32_t b) {
  if (cse_) {
    if ((op == Op::kAnd || op == Op::kOr || op == Op::kXor) && a > b)
      std::swap(a, b);  // commutative canonicalization
    const std::uint64_t key = (static_cast<std::uint64_t>(op) << 58) ^
                              (static_cast<std::uint64_t>(std::uint32_t(a)) << 29) ^
                              static_cast<std::uint64_t>(std::uint32_t(b));
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    nl_.nodes_.push_back({op, a, b});
    const auto id = static_cast<std::int32_t>(nl_.nodes_.size() - 1);
    memo_.emplace(key, id);
    return id;
  }
  nl_.nodes_.push_back({op, a, b});
  return static_cast<std::int32_t>(nl_.nodes_.size() - 1);
}

std::int32_t NetlistBuilder::land(std::int32_t a, std::int32_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == 1) return b;
  if (b == 1) return a;
  if (a == b) return a;
  return emit(Op::kAnd, a, b);
}

std::int32_t NetlistBuilder::lor(std::int32_t a, std::int32_t b) {
  if (a == 1 || b == 1) return 1;
  if (a == 0) return b;
  if (b == 0) return a;
  if (a == b) return a;
  return emit(Op::kOr, a, b);
}

std::int32_t NetlistBuilder::lxor(std::int32_t a, std::int32_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  if (a == b) return 0;
  return emit(Op::kXor, a, b);
}

std::int32_t NetlistBuilder::lnot(std::int32_t a) {
  if (a == 0) return 1;
  if (a == 1) return 0;
  return emit(Op::kNot, a, -1);
}

std::int32_t NetlistBuilder::cube_product(const Cube& c, int base_input) {
  std::int32_t acc = 1;  // const1
  for (int v = 0; v < c.num_vars(); ++v) {
    const int st = c.var(v);
    if (st < 0) continue;
    const std::int32_t lit =
        st ? input(base_input + v) : lnot(input(base_input + v));
    acc = land(acc, lit);
  }
  return acc;
}

std::int32_t NetlistBuilder::sop(const std::vector<Cube>& cover,
                                 int base_input) {
  std::int32_t acc = 0;  // const0
  for (const Cube& c : cover) acc = lor(acc, cube_product(c, base_input));
  return acc;
}

void NetlistBuilder::add_output(std::int32_t node) {
  CGS_CHECK(node >= 0 && node < static_cast<std::int32_t>(nl_.nodes_.size()));
  nl_.outputs_.push_back(node);
}

Netlist NetlistBuilder::take() {
  memo_.clear();
  return std::move(nl_);
}

}  // namespace cgs::bf
