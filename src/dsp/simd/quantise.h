// Block float-to-fixed quantiser behind radio::Adc::convert (DESIGN.md
// section 12.1).
//
// One pass over interleaved I/Q floats: scale by 2^(bits-1), saturate to
// the two's-complement code range, round to nearest (ties to even),
// left-justify into 16 bits, and OR every lane's clip test into one flag.
// There are no libm calls and no branches. The lane math is written once
// over GCC vector types (4 floats), so the baseline target lowers it to
// SSE2 on x86-64 and to plain scalar code elsewhere; it needs no runtime
// dispatch and builds the same with RJF_ENABLE_SIMD=OFF.
//
// Rounding after saturation is the same as saturating after rounding,
// because the range ends are integers: a value past an end rounds to that
// end or beyond it. Rounding uses the 1.5*2^23 trick ((x + M) - M is
// round-to-nearest-even for |x| < 2^22), which is exact here because the
// saturated value never exceeds 2^15 in magnitude.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rjf::dsp::simd {

/// With L = 2^(bits-1) and bits in [2, 16]: out[k] = clamp(round(x[k]·L),
/// −L, L−1) << (16 − bits), where NaN reads as −L and ±inf saturate.
/// Returns true if any x[k] clipped: its rounded code fell outside
/// [−L, L−1] or it was NaN. A value that rounds to exactly ±end does not
/// clip.
bool quantise_s16(const float* x, std::size_t n, unsigned bits,
                  std::int16_t* out) noexcept;

}  // namespace rjf::dsp::simd
