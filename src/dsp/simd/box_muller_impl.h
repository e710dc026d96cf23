// Lane math of the block Box–Muller kernel (see box_muller.h for the
// contract). Included by box_muller.cpp (baseline tier) and
// kernels_avx2.cpp; each TU instantiates box_muller_t with its own vector
// width. Everything here has internal linkage, so the per-ISA
// instantiations can never be merged across TUs by the linker.
//
// Only IEEE-exact operations appear (+ - * / sqrt and integer bit moves):
// no libm calls, no reciprocal estimates, no FMA — the TUs are compiled
// with -ffp-contract=off — so a lane computes the same bits at any width.
//
// log and sin/cos follow fdlibm (Sun Microsystems, freely redistributable;
// the coefficient tables are fdlibm's e_log.c, k_sin.c, k_cos.c and
// e_rem_pio2.c values), rewritten without branches for the kernel's input
// domain: u1 in [2^-53, 1] (always normal, never zero) and
// theta = 2*pi*u2 in [0, 2*pi). Both stay below 1 ulp of the exact result,
// so the float samples NoiseSource builds from them match the
// Xoshiro256::complex_gaussian oracle to within 1 float ulp and are almost
// always identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numbers>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace rjf::dsp::simd {
namespace {

typedef double f64x2 __attribute__((vector_size(16)));
typedef std::uint64_t u64x2 __attribute__((vector_size(16)));
typedef double f64x4 __attribute__((vector_size(32)));
typedef std::uint64_t u64x4 __attribute__((vector_size(32)));

template <class V>
inline V bm_load(const double* p) noexcept {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <class V>
inline void bm_store(double* p, V v) noexcept {
  std::memcpy(p, &v, sizeof(V));
}

template <class V>
inline V bm_sqrt(V x) noexcept {
#if defined(__AVX__)
  if constexpr (sizeof(V) == 32) return _mm256_sqrt_pd(x);
#endif
#if defined(__SSE2__)
  if constexpr (sizeof(V) == 16) return _mm_sqrt_pd(x);
#endif
  V r = x;
  for (std::size_t i = 0; i < sizeof(V) / sizeof(double); ++i)
    r[i] = __builtin_sqrt(x[i]);  // correctly rounded, like sqrtpd
  return r;
}

// Natural log on [2^-53, 1] (fdlibm e_log.c, branch-free).
template <class V, class U>
inline V bm_log(V x) noexcept {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;

  // Reduce x = 2^k * m with m in [sqrt(2)/2, sqrt(2)): shifting the high
  // word by 0x3ff00000 - 0x3fe6a09e moves the exponent boundary to
  // sqrt(2)/2, so the biased exponent of the shifted word is k + 1023.
  U ix = __builtin_bit_cast(U, x);
  ix += static_cast<std::uint64_t>(0x3ff00000 - 0x3fe6a09e) << 32;
  // k as a double without an int64 -> double conversion (none in AVX2):
  // 2^52 + e has e in its low mantissa bits, and subtracting 2^52 + 1023
  // is exact.
  const V dk = __builtin_bit_cast(V, (ix >> 52) | 0x4330000000000000ULL) -
               (0x1.0p52 + 1023.0);
  ix = (ix & 0x000fffffffffffffULL) + (std::uint64_t{0x3fe6a09e} << 32);
  const V f = __builtin_bit_cast(V, ix) - 1.0;

  const V hfsq = 0.5 * f * f;
  const V s = f / (2.0 + f);
  const V z = s * s;
  const V w = z * z;
  const V t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const V t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const V r = t2 + t1;
  return s * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

// sin and cos of (x + y), |x + y| <= pi/4, y the tail of the reduced
// argument (fdlibm k_sin.c / k_cos.c).
template <class V>
inline V bm_sin_kernel(V x, V y) noexcept {
  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;
  const V z = x * x;
  const V w = z * z;
  const V r = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const V v = z * x;
  return x - ((z * (0.5 * y - v * r) - y) - v * kS1);
}

template <class V>
inline V bm_cos_kernel(V x, V y) noexcept {
  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;
  const V z = x * x;
  V w = z * z;
  const V r = z * (kC1 + z * (kC2 + z * kC3)) +
              w * w * (kC4 + z * (kC5 + z * kC6));
  const V hz = 0.5 * z;
  w = 1.0 - hz;
  return w + (((1.0 - w) - hz) + (z * r - x * y));
}

// sin and cos of theta in [0, 2*pi): quadrant n = round(theta / (pi/2))
// and reduced argument y0 + y1 = theta - n*pi/2 (fdlibm e_rem_pio2.c's
// two-round Cody–Waite reduction, good to ~118 bits at these n <= 4).
template <class V, class U>
inline void bm_sincos(V theta, V& sin_out, V& cos_out) noexcept {
  constexpr double kInvPio2 = 6.36619772367581382433e-01;
  constexpr double kPio2_1 = 1.57079632673412561417e+00;
  constexpr double kPio2_2 = 6.07710050630396597660e-11;
  constexpr double kPio2_2t = 2.02226624879595063154e-21;
  constexpr double kToInt = 0x1.8p52;  // adding it rounds to an integer

  const V shifted = theta * kInvPio2 + kToInt;
  const U n = __builtin_bit_cast(U, shifted);  // n in the low mantissa bits
  const V fn = shifted - kToInt;
  const V r1 = theta - fn * kPio2_1;  // exact: fn*kPio2_1 has <= 36 bits
  const V w2 = fn * kPio2_2;
  const V r2 = r1 - w2;
  const V w = fn * kPio2_2t - ((r1 - r2) - w2);
  const V y0 = r2 - w;
  const V y1 = (r2 - y0) - w;

  const U s = __builtin_bit_cast(U, bm_sin_kernel(y0, y1));
  const U c = __builtin_bit_cast(U, bm_cos_kernel(y0, y1));
  // Quadrant n: sin = {s, c, -s, -c}[n & 3], cos = {c, -s, -c, s}[n & 3].
  const U swap = -(n & 1);
  const U sin_bits = ((c & swap) | (s & ~swap)) ^ ((n & 2) << 62);
  const U cos_bits = ((s & swap) | (c & ~swap)) ^ (((n + 1) & 2) << 62);
  sin_out = __builtin_bit_cast(V, sin_bits);
  cos_out = __builtin_bit_cast(V, cos_bits);
}

template <class V, class U>
void box_muller_t(const double* u1, const double* u2, std::size_t n,
                  double* re, double* im) noexcept {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  for (std::size_t i = 0; i < n; i += kLanes) {
    // The oracle's expressions: sqrt(-2 log u1) and (2*pi) * u2.
    const V r = bm_sqrt(-2.0 * bm_log<V, U>(bm_load<V>(u1 + i)));
    V sin_t;
    V cos_t;
    bm_sincos<V, U>(kTwoPi * bm_load<V>(u2 + i), sin_t, cos_t);
    bm_store(re + i, r * cos_t);
    bm_store(im + i, r * sin_t);
  }
}

}  // namespace
}  // namespace rjf::dsp::simd
