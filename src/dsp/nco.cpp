#include "dsp/nco.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace rjf::dsp {

Nco::Nco(double freq_hz, double sample_rate_hz) : sample_rate_(sample_rate_hz) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("Nco: sample rate must be positive");
  set_frequency(freq_hz);
}

void Nco::set_frequency(double freq_hz) noexcept {
  negative_ = freq_hz < 0.0;
  // Wrap |f| modulo the sample rate, as the 64-bit accumulator of a CORDIC
  // NCO does: 1.25·fs aliases to 0.25·fs. Below fs the fraction is f/fs
  // exactly. Unwrapped, |f| >= fs made the increment a double >= 2^64,
  // whose conversion to uint64_t is UB (0 on x86: DC).
  const double cycles = std::abs(freq_hz) / sample_rate_;
  const double inc =
      (cycles - std::floor(cycles)) * 18446744073709551616.0 /* 2^64 */;
  // inc < 2^64 for any finite f; the check sends NaN/inf to DC.
  phase_inc_ = inc < 18446744073709551616.0 ? static_cast<std::uint64_t>(inc)
                                            : 0;
}

double Nco::frequency() const noexcept {
  const double f =
      static_cast<double>(phase_inc_) / 18446744073709551616.0 * sample_rate_;
  return negative_ ? -f : f;
}

cfloat Nco::step() noexcept {
  const double phase = static_cast<double>(phase_acc_) / 18446744073709551616.0 *
                       2.0 * std::numbers::pi;
  phase_acc_ += phase_inc_;
  const double signed_phase = negative_ ? -phase : phase;
  return cfloat{static_cast<float>(std::cos(signed_phase)),
                static_cast<float>(std::sin(signed_phase))};
}

cvec Nco::mix(std::span<const cfloat> in) {
  cvec out(in.size());
  for (std::size_t n = 0; n < in.size(); ++n) out[n] = in[n] * step();
  return out;
}

cvec frequency_shift(std::span<const cfloat> in, double freq_hz,
                     double sample_rate_hz) {
  Nco nco(freq_hz, sample_rate_hz);
  return nco.mix(in);
}

}  // namespace rjf::dsp
