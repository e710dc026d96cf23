// White Gaussian noise sources.
//
// Used both as the channel's thermal-noise model and as the jammer's
// 25 MHz WGN waveform preset (paper §2.4, waveform (i)).
#pragma once

#include <cstddef>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace rjf::dsp {

/// Streaming complex WGN source with fixed mean power.
///
/// Samples come from a block Box–Muller kernel (dsp/simd/box_muller.h):
/// the source draws kBlock pairs of uniforms serially from its xoshiro
/// stream, in the order Xoshiro256::complex_gaussian() draws them
/// (u1 = 1 - uniform(), then u2 = uniform(), per complex sample), turns
/// them into unit-variance pairs lane-parallel, and buffers the pairs.
/// sample(), block() and add_to() all take from that one buffer and apply
/// sigma = sqrt(power/2) as a sample is taken, so any mix or chunking of
/// calls yields one sequence.
///
/// Oracle: the n-th sample equals the n-th Xoshiro256(seed)
/// .complex_gaussian(power) to within 1 float ulp per component, and at
/// most 10 in 20 M components differ at all: the kernel's log/sin/cos and
/// libm may round the last double bit differently, which rarely survives
/// the cast to float. Every dispatch tier gives the same bits
/// (tests/test_dsp_noise.cpp).
class NoiseSource {
 public:
  /// `power` is E[|x|^2] of generated samples.
  explicit NoiseSource(double power = 1.0,
                       std::uint64_t seed = 0x5eedULL) noexcept;

  [[nodiscard]] cfloat sample() noexcept {
    if (next_ == kBlock) refill();
    const std::size_t i = next_++;
    return cfloat{static_cast<float>(sigma_ * re_[i]),
                  static_cast<float>(sigma_ * im_[i])};
  }
  [[nodiscard]] cvec block(std::size_t n);

  /// Add noise of this source's power onto an existing buffer.
  void add_to(std::span<cfloat> x) noexcept;

  [[nodiscard]] double power() const noexcept { return power_; }

 private:
  static constexpr std::size_t kBlock = 64;  // unit pairs per refill

  void refill() noexcept;

  double power_;
  double sigma_;
  Xoshiro256 rng_;
  std::size_t next_ = kBlock;
  double re_[kBlock] = {};
  double im_[kBlock] = {};
};

/// Convenience: buffer of complex WGN with the requested mean power.
[[nodiscard]] cvec make_wgn(std::size_t n, double power, std::uint64_t seed);

}  // namespace rjf::dsp
