#include "dsp/simd/quantise.h"

#include <cstring>

namespace rjf::dsp::simd {
namespace {

typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef std::int16_t i16x4 __attribute__((vector_size(8)));

constexpr std::size_t kLanes = 4;

struct Quantiser {
  f32x4 scale;     // L
  f32x4 lo;        // -L
  f32x4 hi;        // L - 1
  f32x4 clip_lo;   // -L - 0.5: below it the rounded code is < -L
  f32x4 clip_hi;   // L - 0.5: at or above it the rounded code is >= L
  i32x4 shift;     // left-justification into 16 bits

  explicit Quantiser(unsigned bits) noexcept {
    const float levels = static_cast<float>(1u << (bits - 1));
    scale = f32x4{} + levels;
    lo = f32x4{} - levels;
    hi = f32x4{} + (levels - 1.0f);
    clip_lo = f32x4{} - (levels + 0.5f);
    clip_hi = f32x4{} + (levels - 0.5f);
    shift = i32x4{} + static_cast<std::int32_t>(16 - bits);
  }

  // Quantises 4 lanes into `out`; returns their clip mask (-1 = clipped).
  i32x4 operator()(f32x4 x, i16x4& out) const noexcept {
    constexpr float kRound = 12582912.0f;  // 1.5 * 2^23
    const f32x4 scaled = x * scale;
    const i32x4 above_lo = scaled >= lo;  // false for NaN
    f32x4 held = above_lo ? scaled : lo;
    held = held <= hi ? held : hi;
    held = (held + kRound) - kRound;
    const i32x4 code = __builtin_convertvector(held, i32x4) << shift;
    out = __builtin_convertvector(code, i16x4);
    return ~((scaled >= clip_lo) & (scaled < clip_hi));
  }
};

}  // namespace

bool quantise_s16(const float* x, std::size_t n, unsigned bits,
                  std::int16_t* out) noexcept {
  const Quantiser q(bits);
  i32x4 clipped{};
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    f32x4 v;
    std::memcpy(&v, x + k, sizeof v);
    i16x4 codes;
    clipped |= q(v, codes);
    std::memcpy(out + k, &codes, sizeof codes);
  }
  if (k < n) {
    // Tail: the same lane math on a zero-padded copy (0 never clips).
    f32x4 v{};
    std::memcpy(&v, x + k, (n - k) * sizeof(float));
    i16x4 codes;
    clipped |= q(v, codes);
    std::memcpy(out + k, &codes, (n - k) * sizeof(std::int16_t));
  }
  return (clipped[0] | clipped[1] | clipped[2] | clipped[3]) != 0;
}

}  // namespace rjf::dsp::simd
