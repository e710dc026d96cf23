// Dispatcher and baseline-ISA tier of the block Box–Muller kernel. This TU
// is built with the tree's baseline flags (plus -ffp-contract=off), so the
// "scalar" tier is whatever the baseline target lowers 2-lane vectors to:
// SSE2 on x86-64, plain scalar code elsewhere.
#include "dsp/simd/box_muller.h"

#include "dsp/simd/box_muller_impl.h"

namespace rjf::dsp::simd {

void box_muller(Isa isa, const double* u1, const double* u2, std::size_t n,
                double* re, double* im) noexcept {
  // SSE4.2 has no tier of its own: it runs the baseline 2-lane math.
  if (isa == Isa::kAvx2 && detail::box_muller_avx2(u1, u2, n, re, im)) return;
  box_muller_t<f64x2, u64x2>(u1, u2, n, re, im);
}

}  // namespace rjf::dsp::simd
