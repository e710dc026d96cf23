#include "dsp/noise.h"

#include <cmath>

#include "dsp/simd/box_muller.h"

namespace rjf::dsp {

NoiseSource::NoiseSource(double power, std::uint64_t seed) noexcept
    : power_(power), sigma_(std::sqrt(power / 2.0)), rng_(seed) {}

void NoiseSource::refill() noexcept {
  static_assert(kBlock % simd::kBoxMullerGranule == 0);
  double u1[kBlock];
  double u2[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    u1[i] = 1.0 - rng_.uniform();
    u2[i] = rng_.uniform();
  }
  simd::box_muller(simd::active_isa(), u1, u2, kBlock, re_, im_);
  next_ = 0;
}

cvec NoiseSource::block(std::size_t n) {
  cvec out(n);
  for (cfloat& s : out) s = sample();
  return out;
}

void NoiseSource::add_to(std::span<cfloat> x) noexcept {
  for (cfloat& s : x) s += sample();
}

cvec make_wgn(std::size_t n, double power, std::uint64_t seed) {
  NoiseSource src(power, seed);
  return src.block(n);
}

}  // namespace rjf::dsp
