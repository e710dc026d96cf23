#include "dsp/resampler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace rjf::dsp {
namespace {

// Kernel half-width in input samples. 8 taps per output point is plenty for
// the ~0.8 ratio conversions used here.
constexpr int kHalfWidth = 4;
// Input samples one output point draws on: 2*kHalfWidth+1 when its instant
// falls on an input sample, 2*kHalfWidth otherwise.
constexpr int kMaxTaps = 2 * kHalfWidth + 1;

float sinc_kernel(double t, double cutoff) {
  // Hann-windowed sinc, support [-kHalfWidth, kHalfWidth].
  if (std::abs(t) >= kHalfWidth) return 0.0f;
  const double x = std::numbers::pi * t;
  const double sinc = (t == 0.0) ? 1.0 : std::sin(2.0 * cutoff * x) / (2.0 * cutoff * x);
  const double window =
      0.5 * (1.0 + std::cos(std::numbers::pi * t / kHalfWidth));
  return static_cast<float>(2.0 * cutoff * sinc * window);
}

// The taps of an output point whose instant lies `frac` (in [0, 1)) past
// input sample `fl`, for k = fl + first_offset(frac) .. fl + kHalfWidth.
// `static_cast<double>(j) - frac` is the correctly rounded value of the
// same real number as the reference's `k - center` (DESIGN §12.2), so
// these are the reference's taps bit for bit.
int first_offset(double frac) { return frac == 0.0 ? -kHalfWidth : 1 - kHalfWidth; }

void fill_taps(double frac, double cutoff, float* taps) {
  for (int j = first_offset(frac); j <= kHalfWidth; ++j)
    *taps++ = sinc_kernel(static_cast<double>(j) - frac, cutoff);
}

// Per-call memo of the taps for each distinct fractional offset, keyed on
// the offset's exact bits: open addressing with linear probing, at most
// half full. A call sees few distinct offsets (30 per 20->25 MHz phase,
// about 222 per 11->25 MHz phase, 702 for a 11.2->25 MHz WiMAX frame), so
// once the table is half full any further offsets are evaluated directly
// instead of stored.
class TapMemo {
 public:
  explicit TapMemo(std::size_t n_out)
      : slots_(std::bit_ceil(std::min(2 * n_out, kMaxSlots))),
        keys_(slots_, kEmpty),
        taps_(std::make_unique_for_overwrite<float[]>(slots_ * kMaxTaps)) {}

  /// Taps for `frac`, computed at most once per distinct value while the
  /// table has room; `scratch` (kMaxTaps floats) holds them otherwise.
  const float* taps(double frac, double cutoff, float* scratch) {
    const auto key = std::bit_cast<std::uint64_t>(frac);
    const std::size_t mask = slots_ - 1;
    std::size_t i = static_cast<std::size_t>(
                        (key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return &taps_[i * kMaxTaps];
      i = (i + 1) & mask;
    }
    float* out = scratch;
    if (2 * (entries_ + 1) <= slots_) {
      keys_[i] = key;
      ++entries_;
      out = &taps_[i * kMaxTaps];
    }
    fill_taps(frac, cutoff, out);
    return out;
  }

 private:
  static constexpr std::size_t kMaxSlots = 2048;
  // Bits of a NaN: never the bits of a fractional offset in [0, 1).
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t slots_;
  std::size_t entries_ = 0;
  std::vector<std::uint64_t> keys_;
  std::unique_ptr<float[]> taps_;  // written before it is read
};

}  // namespace

Resampler::Resampler(double in_rate, double out_rate)
    : ratio_(out_rate / in_rate) {
  if (!(std::isfinite(in_rate) && std::isfinite(out_rate)) || in_rate <= 0.0 ||
      out_rate <= 0.0 || !std::isfinite(ratio_) || ratio_ <= 0.0)
    throw std::invalid_argument(
        "Resampler: rates must be finite and positive, with a finite "
        "positive ratio");
}

std::size_t Resampler::output_length(std::size_t n_in,
                                     double fractional_delay) const {
  if (!(fractional_delay >= 0.0 && fractional_delay < 1.0))
    throw std::invalid_argument(
        "Resampler: fractional_delay must lie in [0, 1)");
  const double n_out = std::floor(static_cast<double>(n_in) * ratio_);
  if (!(n_out < static_cast<double>(std::numeric_limits<std::ptrdiff_t>::max())))
    throw std::length_error("Resampler: output length overflows");
  return static_cast<std::size_t>(n_out);
}

cvec Resampler::resample(std::span<const cfloat> in,
                         double fractional_delay) const {
  const std::size_t n_out = output_length(in.size(), fractional_delay);
  if (in.empty()) return {};
  cvec out(n_out);
  // When decimating, lower the kernel cutoff to suppress aliasing.
  const double cutoff = 0.5 * std::min(1.0, ratio_);
  const auto n_in = static_cast<long>(in.size());
  TapMemo memo(n_out);
  float scratch[kMaxTaps];
  for (std::size_t m = 0; m < n_out; ++m) {
    const double center = static_cast<double>(m) / ratio_ + fractional_delay;
    const double fl = std::floor(center);
    const double frac = center - fl;  // exact (Sterbenz)
    const float* taps = memo.taps(frac, cutoff, scratch);
    // Same k range and summation order as resample_reference().
    const long lo = static_cast<long>(fl) + first_offset(frac);
    const long hi = static_cast<long>(fl) + kHalfWidth;
    cfloat acc{};
    for (long k = lo; k <= hi; ++k) {
      if (k < 0 || k >= n_in) continue;
      acc += in[static_cast<std::size_t>(k)] * taps[k - lo];
    }
    out[m] = acc;
  }
  return out;
}

cvec Resampler::resample_reference(std::span<const cfloat> in,
                                   double fractional_delay) const {
  const std::size_t n_out = output_length(in.size(), fractional_delay);
  if (in.empty()) return {};
  cvec out(n_out);
  // When decimating, lower the kernel cutoff to suppress aliasing.
  const double cutoff = 0.5 * std::min(1.0, ratio_);
  for (std::size_t m = 0; m < n_out; ++m) {
    const double center = static_cast<double>(m) / ratio_ + fractional_delay;
    const auto lo = static_cast<long>(std::ceil(center)) - kHalfWidth;
    const auto hi = static_cast<long>(std::floor(center)) + kHalfWidth;
    cfloat acc{};
    for (long k = lo; k <= hi; ++k) {
      if (k < 0 || k >= static_cast<long>(in.size())) continue;
      acc += in[static_cast<std::size_t>(k)] *
             sinc_kernel(static_cast<double>(k) - center, cutoff);
    }
    out[m] = acc;
  }
  return out;
}

cvec resample(std::span<const cfloat> in, double in_rate, double out_rate) {
  return Resampler(in_rate, out_rate).resample(in);
}

}  // namespace rjf::dsp
