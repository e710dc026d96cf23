// Arbitrary-ratio polyphase resampler.
//
// The paper's single most important analog imperfection is the sampling
// rate mismatch between the WiFi transmitter (20 MSPS per 802.11g) and the
// USRP receive chain (25 MSPS fixed by the UHD design). Figure 6's ~50%
// single-long-preamble detection rate is attributed directly to this
// mismatch, so the resampler is a first-class substrate here: every
// over-the-air waveform is resampled to the fabric rate before detection.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace rjf::dsp {

/// Windowed-sinc fractional resampler (8-tap Hann-windowed kernel,
/// continuously evaluated at each output instant).
class Resampler {
 public:
  /// Converts a stream at `in_rate` Hz to `out_rate` Hz. Throws
  /// std::invalid_argument unless both rates are finite and positive and
  /// their ratio is too.
  Resampler(double in_rate, double out_rate);

  /// Resample a whole buffer (stateless convenience; pads edges with zeros).
  /// `fractional_delay` shifts the output sampling grid by that fraction of
  /// an input sample (0 <= d < 1, else std::invalid_argument) — used to
  /// model arbitrary timing offsets between transmitter and receiver
  /// sample clocks. The kernel is evaluated once per distinct fractional
  /// offset of an output instant and reused (DESIGN §12.2); the output is
  /// bit-identical to resample_reference().
  [[nodiscard]] cvec resample(std::span<const cfloat> in,
                              double fractional_delay = 0.0) const;

  /// The kernel evaluated afresh at every tap of every output point: the
  /// oracle resample() must match bit for bit.
  [[nodiscard]] cvec resample_reference(std::span<const cfloat> in,
                                        double fractional_delay = 0.0) const;

  [[nodiscard]] double ratio() const noexcept { return ratio_; }

 private:
  // Validates `fractional_delay` and returns floor(n_in * ratio).
  [[nodiscard]] std::size_t output_length(std::size_t n_in,
                                          double fractional_delay) const;

  double ratio_;  // out samples per in sample
};

/// One-shot helper.
[[nodiscard]] cvec resample(std::span<const cfloat> in, double in_rate,
                            double out_rate);

}  // namespace rjf::dsp
