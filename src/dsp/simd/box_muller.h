// Block Box–Muller kernel behind dsp::NoiseSource (DESIGN.md section 12).
//
// Turns n pairs of uniforms into n pairs of unit-variance Gaussians:
//   r = sqrt(-2 log u1),  theta = 2*pi*u2,
//   re[i] = r cos(theta),  im[i] = r sin(theta)
// in double precision — the arithmetic Xoshiro256::gaussian() performs,
// with the libm calls replaced by branch-free polynomial evaluations
// (fdlibm's log and sin/cos kernels) that run lane-parallel.
//
// The uniforms are drawn by the caller, serially and in the oracle's
// order, so the kernel itself is a pure function of its inputs.
//
// Tier contract: the lane math is written once (box_muller_impl.h) over
// GCC vector types, using only IEEE-exact operations (+ - * / sqrt,
// compares, bit moves) with contraction disabled in every TU that
// compiles it. Each lane therefore computes the same bits whatever the
// vector width, and the baseline (2-lane) and AVX2 (4-lane) tiers return
// bit-identical output for the same inputs
// (tests/test_dsp_noise.cpp runs every tier the host supports). SSE4.2
// adds nothing the 2-lane math uses, so SSE4.2 hosts run the baseline tier.
#pragma once

#include <cstddef>

#include "dsp/simd/dispatch.h"

namespace rjf::dsp::simd {

/// Lane-count granularity of box_muller(): `n` must be a multiple of it.
inline constexpr std::size_t kBoxMullerGranule = 8;

/// u1 in [2^-53, 1] (any normal double in (0, 1]; the log's exponent
/// extraction is wrong for subnormals), u2 in [0, 1); writes n
/// unit-variance pairs to re/im.
/// `isa` must not exceed active_isa(); a tier the build lacks falls back to
/// the next one, down to the baseline tier, which always exists.
void box_muller(Isa isa, const double* u1, const double* u2, std::size_t n,
                double* re, double* im) noexcept;

namespace detail {
bool box_muller_avx2(const double* u1, const double* u2, std::size_t n,
                     double* re, double* im) noexcept;
}  // namespace detail

}  // namespace rjf::dsp::simd
