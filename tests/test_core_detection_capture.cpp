// synthesize_trial_capture against the per-sample oracles: the capture a
// trial streams must quantise to the same IQ16 as one built sample by
// sample from Xoshiro256::complex_gaussian and cfo_phasor.
#include <gtest/gtest.h>

#include <numbers>

#include "core/detection_experiment.h"
#include "core/scenario.h"
#include "dsp/rng.h"
#include "fpga/dsp_core.h"
#include "radio/adc_dac.h"
#include "radio/usrp_n210.h"

namespace rjf::core {
namespace {

// The pre-kernel synthesis: one libm Box–Muller pair and one
// remainder/cos/sin phasor per sample, in the same draw order.
dsp::cvec oracle_capture(const DetectionTrialPlan& plan, std::size_t trial) {
  dsp::Xoshiro256 rng(dsp::derive_seed(plan.seed, trial));
  dsp::Xoshiro256 noise(rng.next());
  const dsp::cvec& frame = plan.variants[rng.uniform_int(plan.variants.size())];
  dsp::cvec capture(plan.lead_in + frame.size() + plan.tail);
  for (auto& s : capture) s = noise.complex_gaussian(plan.noise_power);
  const double cfo = (2.0 * rng.uniform() - 1.0) * plan.max_cfo_hz;
  const double w = 2.0 * std::numbers::pi * cfo / fpga::kBasebandRateHz;
  for (std::size_t k = 0; k < frame.size(); ++k)
    capture[plan.lead_in + k] += frame[k] * cfo_phasor(w, k);
  return capture;
}

void expect_iq16_matches_oracle(const char* target_name, double mbps) {
  const ProtocolTarget& target = target_or_throw(target_name);
  std::size_t rate = 0;
  while (rate < target.rates.size() && target.rates[rate].mbps != mbps) ++rate;
  ASSERT_LT(rate, target.rates.size()) << target_name << " " << mbps;
  DetectionRunConfig config;
  config.snr_db = 3.0;
  config.tx_rate_hz = target.native_rate_hz;
  config.seed = dsp::derive_seed(0xCA97, rate);
  const DetectionTrialPlan plan = prepare_detection_trials(
      target_frame(target, rate, 64, 0xA5, 0x5D), DetectorTap::kXcorr,
      config);

  // The radio's own receive path: front-end gain, then the 14-bit ADC.
  radio::UsrpN210 radio;
  const radio::Adc adc;
  std::size_t samples = 0;
  dsp::cvec capture;
  for (std::size_t t = 0; t < 200; ++t) {
    synthesize_trial_capture(plan, t, capture);
    const dsp::cvec want = oracle_capture(plan, t);
    ASSERT_EQ(capture.size(), want.size()) << target_name << " trial " << t;
    const dsp::iqvec got_iq = adc.convert(radio.frontend().apply_rx(capture));
    const dsp::iqvec want_iq = adc.convert(radio.frontend().apply_rx(want));
    ASSERT_EQ(got_iq, want_iq) << target_name << " trial " << t;
    samples += capture.size();
  }
  EXPECT_GT(samples, 200u * (plan.lead_in + plan.tail));
}

TEST(DetectionCapture, Ofdm54MbpsIq16MatchesPerSampleOracles) {
  expect_iq16_matches_oracle("wifi_ofdm", 54.0);
}

TEST(DetectionCapture, Dsss1MbpsIq16MatchesPerSampleOracles) {
  expect_iq16_matches_oracle("wifi_dsss", 1.0);
}

}  // namespace
}  // namespace rjf::core
