#pragma once
// The comparison baseline of Table 2: the flat bit-sliced sampler in the
// style of [Karmakar et al., IEEE TC 2018]. Each output bit is one two-level
// SOP over all n input variables, one cube per DDG leaf (after adjacency
// merging — the "simple minimization"), with no sublist split and no one-hot
// chain. Runs on the same netlist interpreter as the split sampler so the
// Table-2 comparison isolates the paper's minimization strategy.

#include "bf/netlist.h"
#include "ct/leaf_enum.h"
#include "ct/synthesis.h"
#include "gauss/probmatrix.h"

namespace cgs::ct {

struct FlatConfig {
  bool merge = true;  // adjacency merging of leaf cubes ("simple" min.)
  bool cse = true;    // structural hashing during netlist build
  bool emit_valid_bit = true;
};

/// Build the flat sampler; the result plugs into the same BatchSampler.
SynthesizedSampler synthesize_flat(const gauss::ProbMatrix& matrix,
                                   const FlatConfig& config = {});

}  // namespace cgs::ct
