#pragma once
// NTRUSolve: given small f, g in Z[x]/(x^N+1), find F, G with
// f G - g F = q. The field-norm recursion of Falcon's keygen: project to
// half-size rings via N(.), solve at the bottom with integer XGCD, lift
// back up and Babai-reduce at every level with scaled-double FFT precision
// (exact arithmetic throughout; doubles only steer the reduction). Every
// level hands back (F, G) about as short as its (f, g), so the top levels
// work on small coefficients and multiply in machine words.

#include <optional>

#include "falcon/zpoly.h"

namespace cgs::falcon {

struct NtruSolution {
  ZPoly f_cap;  // F
  ZPoly g_cap;  // G
};

/// Returns nullopt when the resultants share a factor (caller resamples
/// f, g). On success, f G - g F == q exactly (verified internally).
std::optional<NtruSolution> ntru_solve(const ZPoly& f, const ZPoly& g,
                                       std::int64_t q);

/// Babai-style length reduction of (F, G) against (f, g): repeatedly
/// subtracts k*(f,g) with k = round((F f* + G g*) / (f f* + g g*)).
/// While (F, G) is longer than (f, g) the quotient is taken from their top
/// 53 bits as k 2^shift, k scaled to about 30 bits, so each round removes
/// about 30 bits. Stops when k rounds to zero or a round no longer shrinks
/// max(bits(F), bits(G)). Exposed for tests; ntru_solve calls it at every
/// level.
void reduce_against(const ZPoly& f, const ZPoly& g, ZPoly& F, ZPoly& G);

}  // namespace cgs::falcon
