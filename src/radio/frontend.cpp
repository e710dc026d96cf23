#include "radio/frontend.h"

#include <algorithm>
#include <cmath>

#include "dsp/db.h"

namespace rjf::radio {
namespace {

void scale(std::span<const dsp::cfloat> in, std::span<dsp::cfloat> out,
           double gain_db) noexcept {
  const auto g = static_cast<float>(dsp::amplitude_from_db(gain_db));
  std::transform(in.begin(), in.end(), out.begin(),
                 [g](dsp::cfloat s) { return s * g; });
}

}  // namespace

void SbxFrontend::tune(double freq_hz) {
  if (freq_hz < kMinFreqHz || freq_hz > kMaxFreqHz)
    throw std::out_of_range("SbxFrontend::tune: frequency outside SBX range");
  freq_hz_ = freq_hz;
}

void SbxFrontend::set_tx_gain(double db) noexcept {
  tx_gain_db_ = std::clamp(db, 0.0, kMaxGainDb);
}

void SbxFrontend::set_rx_gain(double db) noexcept {
  rx_gain_db_ = std::clamp(db, 0.0, kMaxGainDb);
}

dsp::cvec SbxFrontend::apply_rx(std::span<const dsp::cfloat> in) const {
  dsp::cvec out(in.size());
  scale(in, out, rx_gain_db_);
  return out;
}

void SbxFrontend::apply_tx(std::span<const dsp::cfloat> in,
                           std::span<dsp::cfloat> out) const noexcept {
  scale(in, out, tx_gain_db_);
}

void SbxFrontend::apply_rx(std::span<const dsp::cfloat> in,
                           std::span<dsp::cfloat> out) const noexcept {
  scale(in, out, rx_gain_db_);
}

}  // namespace rjf::radio
