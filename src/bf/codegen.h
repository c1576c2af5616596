#pragma once
// Emits a synthesized netlist as a self-contained C function operating on
// uint64_t lanes — the shape of artifact the paper's companion tool
// (github.com/Angshumank/const_gauss_split) produced.

#include <string>

#include "bf/netlist.h"

namespace cgs::bf {

/// C11 source for the netlist on 64 * `words` lanes:
///   void <name>(const uint64_t in[words*num_inputs],
///               uint64_t out[words*num_outputs]);
/// words = 1 is the paper's form, one uint64_t per netlist bit. words = 4
/// or 8 run the same straight-line netlist on GCC vector words of that many
/// uint64s (256 or 512 lanes: the paper's §3.2 word-width scaling, applied
/// to the compiled artifact), group-major: word g of bit k at index
/// words*k + g. The vector typedef carries aligned(8) so callers need not
/// over-align their buffers.
std::string emit_c(const Netlist& nl, const std::string& name, int words = 1);

}  // namespace cgs::bf
