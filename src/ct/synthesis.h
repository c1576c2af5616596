#pragma once
// The paper's Fig. 4 pipeline, end to end:
//
//   ProbMatrix --> enumerate_leaves (list L, Theorem 1 form)
//              --> split_by_kappa  (sublists l_0..l_n')
//              --> per-sublist exact minimization (f^{iota,kappa}_Delta)
//              --> one-hot c_kappa chain + OR recombination  (Eqn. 2)
//              --> straight-line Netlist (the constant-time sampler core)
//
// The result is data, not code: evaluate it 64 lanes at a time through
// Netlist::eval (see BatchSampler), or emit it as C via bf::emit_c.

#include <cstddef>
#include <string>

#include "bf/netlist.h"
#include "ct/sublists.h"
#include "gauss/probmatrix.h"

namespace cgs::ct {

enum class MinimizeMode {
  kExact,      // QM + branch-and-bound per sublist (paper: espresso -Dso -S1)
  kHeuristic,  // espresso-lite expand/irredundant
  kMergeOnly,  // adjacency merging only
  kNone,       // raw leaf cubes
};

struct SynthesisConfig {
  MinimizeMode mode = MinimizeMode::kExact;
  bool emit_valid_bit = true;   // extra output: 1 iff the walk hit a leaf
  bool cse = true;              // structural hashing in the netlist
  int exact_max_vars = 12;      // kExact falls back to heuristic above this
  std::size_t qm_node_budget = 200000;
};

struct SynthesisStats {
  std::size_t num_leaves = 0;
  int max_kappa = -1;
  int delta = 0;
  std::size_t cubes_raw = 0;        // before minimization
  std::size_t cubes_minimized = 0;  // after
  std::size_t netlist_ops = 0;
  bool all_exact = true;            // every sublist minimized exactly
  std::string describe() const;
};

struct SynthesizedSampler {
  bf::Netlist netlist;      // inputs b_0..b_{n-1}; outputs: sample bits
                            // iota = 0..m-1 (LSB first), then valid bit
  int precision = 0;        // n
  int num_output_bits = 0;  // m
  bool has_valid_bit = false;
  SynthesisStats stats;
};

/// Run the full pipeline on a probability matrix.
SynthesizedSampler synthesize(const gauss::ProbMatrix& matrix,
                              const SynthesisConfig& config = {});

}  // namespace cgs::ct
