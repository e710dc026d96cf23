// AVX2 instantiations of the SIMD DSP kernels.  This TU is the only one
// compiled with -mavx2; the Ops structs live in an anonymous namespace so
// the templates instantiate with TU-unique types (no ODR overlap with the
// SSE4.2 TU).  When the toolchain lacks -mavx2 (or RJF_ENABLE_SIMD is
// OFF), the entry points compile as stubs returning false and the
// dispatcher falls back to the next-best ISA.
#include "dsp/simd/box_muller.h"
#include "dsp/simd/fft_kernels.h"
#include "dsp/simd/viterbi.h"

#if defined(RJF_SIMD_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include "dsp/simd/box_muller_impl.h"
#include "dsp/simd/fft_kernels_impl.h"
#include "dsp/simd/viterbi_kernels_impl.h"

namespace rjf::dsp::simd {
namespace {

struct AvxOps {
  using u8v = __m256i;
  static constexpr std::size_t kU8Lanes = 32;
  static u8v loadu8(const std::uint8_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu8(std::uint8_t* p, u8v v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static u8v set1u8(std::uint8_t x) noexcept {
    return _mm256_set1_epi8(static_cast<char>(x));
  }
  static u8v addsu8(u8v a, u8v b) noexcept { return _mm256_adds_epu8(a, b); }
  static u8v subsu8(u8v a, u8v b) noexcept { return _mm256_subs_epu8(a, b); }
  static u8v minu8(u8v a, u8v b) noexcept { return _mm256_min_epu8(a, b); }
  static u8v cmpequ8(u8v a, u8v b) noexcept { return _mm256_cmpeq_epi8(a, b); }
  static unsigned movemasku8(u8v v) noexcept {
    return static_cast<unsigned>(_mm256_movemask_epi8(v));
  }
  // In-order duplication of one half of the register: byte indices that
  // repeat each byte, applied after broadcasting the chosen 128-bit half
  // to both lanes (shuffle_epi8 indexes within each 128-bit lane, so the
  // upper output lane picks bytes 8..15 of the same half).
  static __m256i dup_idx() noexcept {
    return _mm256_setr_epi8(0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7,
                            8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14,
                            14, 15, 15);
  }
  static u8v dup_low8(u8v v) noexcept {
    return _mm256_shuffle_epi8(_mm256_permute4x64_epi64(v, 0x44), dup_idx());
  }
  static u8v dup_high8(u8v v) noexcept {
    return _mm256_shuffle_epi8(_mm256_permute4x64_epi64(v, 0xEE), dup_idx());
  }

  using f32v = __m256;
  static constexpr std::size_t kF32Lanes = 8;
  static f32v loaduf(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static void storeuf(float* p, f32v v) noexcept { _mm256_storeu_ps(p, v); }
  static f32v set1f(float x) noexcept { return _mm256_set1_ps(x); }
  static f32v addf(f32v a, f32v b) noexcept { return _mm256_add_ps(a, b); }
  static f32v subf(f32v a, f32v b) noexcept { return _mm256_sub_ps(a, b); }
  static f32v minf(f32v a, f32v b) noexcept { return _mm256_min_ps(a, b); }
  static f32v cmpltf(f32v a, f32v b) noexcept {
    return _mm256_cmp_ps(a, b, _CMP_LT_OQ);
  }
  static f32v blendf(f32v a, f32v b, f32v mask) noexcept {
    return _mm256_blendv_ps(a, b, mask);
  }
  static unsigned movemaskf(f32v v) noexcept {
    return static_cast<unsigned>(_mm256_movemask_ps(v));
  }
  static void dupf(f32v v, f32v& lo, f32v& hi) noexcept {
    const __m256 a = _mm256_unpacklo_ps(v, v);
    const __m256 b = _mm256_unpackhi_ps(v, v);
    lo = _mm256_permute2f128_ps(a, b, 0x20);
    hi = _mm256_permute2f128_ps(a, b, 0x31);
  }

  static constexpr std::size_t kComplexLanes = 4;
  // (ar*br - ai*bi, ai*br + ar*bi) via addsub: even lanes subtract,
  // odd lanes add — same multiply/add sequence as the scalar stages.
  static f32v cmul(f32v a, f32v b) noexcept {
    const __m256 br = _mm256_moveldup_ps(b);
    const __m256 bi = _mm256_movehdup_ps(b);
    const __m256 asw = _mm256_permute_ps(a, 0xB1);  // (ai, ar) pairs
    return _mm256_addsub_ps(_mm256_mul_ps(a, br), _mm256_mul_ps(asw, bi));
  }
  static f32v mul_i(f32v v) noexcept {
    const __m256 sw = _mm256_permute_ps(v, 0xB1);  // (im, re) pairs
    const __m256 sign = _mm256_setr_ps(-0.0f, 0.0f, -0.0f, 0.0f,
                                       -0.0f, 0.0f, -0.0f, 0.0f);
    return _mm256_xor_ps(sw, sign);  // (-im, re) = i*v
  }
};

}  // namespace

namespace detail {

bool viterbi_hard_avx2(const std::uint8_t* coded, std::size_t n_steps,
                       std::uint64_t* survivors, std::uint16_t* final_metrics) {
  viterbi_hard_acs_t<AvxOps>(coded, n_steps, survivors, final_metrics);
  return true;
}

bool viterbi_soft_avx2(const float* llrs, std::size_t n_steps,
                       std::uint64_t* survivors, float* final_metrics) {
  viterbi_soft_acs_t<AvxOps>(llrs, n_steps, survivors, final_metrics);
  return true;
}

bool fft_exec_avx2(const FftKernelRun& run, float* x) {
  fft_exec_t<AvxOps>(run, x);
  return true;
}

bool box_muller_avx2(const double* u1, const double* u2, std::size_t n,
                     double* re, double* im) noexcept {
  box_muller_t<f64x4, u64x4>(u1, u2, n, re, im);
  return true;
}

}  // namespace detail
}  // namespace rjf::dsp::simd

#else  // no AVX2 build

namespace rjf::dsp::simd::detail {

bool viterbi_hard_avx2(const std::uint8_t*, std::size_t, std::uint64_t*,
                       std::uint16_t*) {
  return false;
}

bool viterbi_soft_avx2(const float*, std::size_t, std::uint64_t*, float*) {
  return false;
}

bool fft_exec_avx2(const FftKernelRun&, float*) { return false; }

bool box_muller_avx2(const double*, const double*, std::size_t, double*,
                     double*) noexcept {
  return false;
}

}  // namespace rjf::dsp::simd::detail

#endif
