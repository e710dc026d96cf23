// Numerically controlled oscillator and complex mixer.
//
// Models the fine-frequency shift stages of the DDC/DUC chains and lets
// experiments introduce carrier frequency offsets between stations.
#pragma once

#include <cstdint>

#include "dsp/types.h"

namespace rjf::dsp {

class Nco {
 public:
  /// `freq_hz` may be negative; `sample_rate_hz` must be positive.
  Nco(double freq_hz, double sample_rate_hz);

  /// Current phasor, then advance one sample.
  [[nodiscard]] cfloat step() noexcept;

  /// Mix a block: out[n] = in[n] * e^{j phase[n]} (stateful).
  [[nodiscard]] cvec mix(std::span<const cfloat> in);

  /// |freq_hz| wraps modulo the sample rate (f and f ± fs are the same
  /// sampled tone); the sign picks the rotation direction.
  void set_frequency(double freq_hz) noexcept;
  [[nodiscard]] double frequency() const noexcept;
  void reset_phase() noexcept { phase_acc_ = 0; }

 private:
  double sample_rate_;
  std::uint64_t phase_acc_ = 0;   // 64-bit phase accumulator
  std::uint64_t phase_inc_ = 0;
  bool negative_ = false;
};

/// One-shot frequency shift of a buffer starting at phase 0.
[[nodiscard]] cvec frequency_shift(std::span<const cfloat> in, double freq_hz,
                                   double sample_rate_hz);

}  // namespace rjf::dsp
