#pragma once
// Straight-line netlist of bitwise word operations — the runtime form of the
// synthesized Boolean functions. Evaluating it on uint64 words *is* the
// paper's bit-sliced SIMD execution: lane i of every word belongs to sample
// i of the batch. Straight-line + branch-free == constant time by
// construction; the dudect harness confirms it empirically.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bf/cube.h"
#include "common/check.h"

namespace cgs::bf {

enum class Op : std::uint8_t { kConst0, kConst1, kInput, kNot, kAnd, kOr, kXor };

struct Node {
  Op op;
  std::int32_t a = -1;  // operand node id (or input index for kInput)
  std::int32_t b = -1;
};

class Netlist {
 public:
  /// Rebuild a netlist from serialized parts (src/serial). Validates the
  /// straight-line invariants — operands refer to strictly earlier nodes,
  /// input indices are in range, outputs name existing nodes — and throws
  /// cgs::Error on any violation, so a hostile or corrupted file can never
  /// produce an out-of-bounds eval.
  static Netlist from_parts(int num_inputs, std::vector<Node> nodes,
                            std::vector<std::int32_t> outputs);

  int num_inputs() const { return num_inputs_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<std::int32_t>& outputs() const { return outputs_; }

  /// Bitwise-op counts by kind (Table-2 style cost reporting).
  std::size_t op_count() const;
  std::string stats() const;

  /// Evaluate every lane of the word type T at once: std::uint64_t for 64
  /// lanes, or any type with ~ & | ^ (e.g. a GCC vector extension for
  /// 256-lane batches). `inputs` holds num_inputs() words, `outputs`
  /// outputs().size(); the caller provides `scratch` of nodes().size()
  /// words, so evaluation is allocation-free and concurrent calls on one
  /// netlist never share state.
  template <typename T>
  void eval(const T* inputs, T* outputs, T* scratch) const {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      switch (n.op) {
        case Op::kConst0: scratch[i] = T{} ^ T{}; break;
        case Op::kConst1: scratch[i] = ~(T{} ^ T{}); break;
        case Op::kInput:  scratch[i] = inputs[static_cast<std::size_t>(n.a)]; break;
        case Op::kNot:    scratch[i] = ~scratch[n.a]; break;
        case Op::kAnd:    scratch[i] = scratch[n.a] & scratch[n.b]; break;
        case Op::kOr:     scratch[i] = scratch[n.a] | scratch[n.b]; break;
        case Op::kXor:    scratch[i] = scratch[n.a] ^ scratch[n.b]; break;
      }
    }
    for (std::size_t o = 0; o < outputs_.size(); ++o)
      outputs[o] = scratch[outputs_[o]];
  }

  /// Single-lane convenience (bits as 0/1).
  std::vector<int> eval_bits(const std::vector<int>& input_bits) const;

 private:
  friend class NetlistBuilder;
  int num_inputs_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::int32_t> outputs_;
};

/// Builds netlists with structural hashing (CSE): identical (op, a, b)
/// triples return the same node, so shared prefixes (the c_kappa chain) and
/// shared product terms across output bits cost nothing extra. Constant
/// folding and operand canonicalization keep the node count honest.
class NetlistBuilder {
 public:
  explicit NetlistBuilder(int num_inputs, bool enable_cse = true);

  std::int32_t const0();
  std::int32_t const1();
  std::int32_t input(int i);
  std::int32_t land(std::int32_t a, std::int32_t b);
  std::int32_t lor(std::int32_t a, std::int32_t b);
  std::int32_t lxor(std::int32_t a, std::int32_t b);
  std::int32_t lnot(std::int32_t a);

  /// AND of the cube's literals over inputs [base_input, base_input+nv).
  std::int32_t cube_product(const Cube& c, int base_input);

  /// OR of cube products (an SOP cover). Empty cover == const 0;
  /// all-don't-care cube == const 1.
  std::int32_t sop(const std::vector<Cube>& cover, int base_input);

  void add_output(std::int32_t node);

  /// Finalize. The builder is left empty.
  Netlist take();

 private:
  std::int32_t emit(Op op, std::int32_t a, std::int32_t b);

  Netlist nl_;
  bool cse_;
  std::unordered_map<std::uint64_t, std::int32_t> memo_;
};

}  // namespace cgs::bf
