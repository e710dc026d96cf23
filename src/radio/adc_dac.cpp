#include "radio/adc_dac.h"

#include <algorithm>
#include <cmath>

#include "dsp/simd/quantise.h"

namespace rjf::radio {

Adc::Adc(unsigned bits) noexcept : bits_(std::clamp(bits, 2u, 16u)) {}

dsp::IQ16 Adc::sample(dsp::cfloat in) const noexcept {
  const double levels = static_cast<double>(1 << (bits_ - 1));
  const auto quantise = [&](float x) -> std::int16_t {
    // Round first, in double, where every float rounds exactly; then
    // clip only when the rounded code falls outside the representable
    // two's-complement range [-levels, levels-1]. A sample that rounds to
    // exactly the top code is quantised without loss and must not flag.
    const double rounded =
        std::nearbyint(static_cast<double>(x * static_cast<float>(levels)));
    if (!(rounded >= -levels && rounded <= levels - 1.0)) clipped_ = true;
    const double code = std::isnan(rounded)
                            ? -levels
                            : std::clamp(rounded, -levels, levels - 1.0);
    // Left-justify into the 16-bit fabric word.
    return static_cast<std::int16_t>(static_cast<int>(code) << (16 - bits_));
  };
  return dsp::IQ16{quantise(in.real()), quantise(in.imag())};
}

dsp::iqvec Adc::convert(std::span<const dsp::cfloat> in) const {
  dsp::iqvec out(in.size());
  convert(in, out);
  return out;
}

void Adc::convert(std::span<const dsp::cfloat> in,
                  std::span<dsp::IQ16> out) const noexcept {
  // std::complex<float> is two floats, and IQ16 two int16s: both
  // interleave I and Q, so the block is 2 * in.size() rails.
  static_assert(sizeof(dsp::IQ16) == 2 * sizeof(std::int16_t));
  clipped_ = dsp::simd::quantise_s16(
      reinterpret_cast<const float*>(in.data()), 2 * in.size(), bits_,
      reinterpret_cast<std::int16_t*>(out.data()));
}

dsp::cfloat Dac::sample(dsp::IQ16 in) const noexcept {
  return dsp::from_iq16(in);
}

dsp::cvec Dac::convert(std::span<const dsp::IQ16> in) const {
  dsp::cvec out(in.size());
  std::transform(in.begin(), in.end(), out.begin(),
                 [&](dsp::IQ16 s) { return sample(s); });
  return out;
}

}  // namespace rjf::radio
