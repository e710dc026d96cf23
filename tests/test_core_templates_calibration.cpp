#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/calibration.h"
#include "core/templates.h"
#include "dsp/resampler.h"
#include "dsp/rng.h"
#include "fpga/dsp_core.h"
#include "phy80211/preamble.h"

namespace rjf::core {
namespace {

TEST(Templates, WifiTemplatesNonTrivial) {
  for (const auto& tpl :
       {wifi_long_preamble_template(), wifi_short_preamble_template()}) {
    int nonzero = 0;
    int at_limit = 0;
    for (std::size_t k = 0; k < fpga::kCorrelatorLength; ++k) {
      EXPECT_GE(tpl.coef_i[k], -4);
      EXPECT_LE(tpl.coef_i[k], 3);
      nonzero += (tpl.coef_i[k] != 0) + (tpl.coef_q[k] != 0);
      at_limit += (std::abs(tpl.coef_i[k]) == 3) + (std::abs(tpl.coef_q[k]) == 3);
    }
    EXPECT_GT(nonzero, 40);   // the template really uses its taps
    EXPECT_GT(at_limit, 0);   // scaling reaches the 3-bit limit
  }
}

TEST(Templates, WimaxTemplateDependsOnCellAndSegment) {
  const auto a = wimax_preamble_template(1, 0);
  const auto b = wimax_preamble_template(1, 1);
  const auto c = wimax_preamble_template(2, 0);
  EXPECT_NE(a.coef_i, b.coef_i);
  EXPECT_NE(a.coef_i, c.coef_i);
  // Deterministic.
  const auto a2 = wimax_preamble_template(1, 0);
  EXPECT_EQ(a.coef_i, a2.coef_i);
  EXPECT_EQ(a.coef_q, a2.coef_q);
}

TEST(Templates, ResampledTemplateMatchesFabricRateSignal) {
  // The resample-aware template must out-correlate the naive native-rate
  // template against a 25 MSPS version of the WiFi long preamble — the
  // core of the paper's sampling-mismatch discussion.
  dsp::cvec lts2 = phy80211::long_training_symbol();
  {
    const dsp::cvec copy = lts2;
    lts2.insert(lts2.end(), copy.begin(), copy.end());
  }
  const auto aware = template_from_waveform(lts2, 20e6, true);
  const auto naive = template_from_waveform(lts2, 20e6, false);

  const dsp::cvec sig25 = dsp::resample(lts2, 20e6, 25e6);
  const auto peak_for = [&](const fpga::CorrelatorTemplate& tpl) {
    fpga::CrossCorrelator corr;
    corr.set_coefficients(tpl.coef_i, tpl.coef_q);
    std::uint32_t peak = 0;
    for (const auto s : sig25)
      peak = std::max(peak, corr.step(dsp::to_iq16(s * 0.5f)).metric);
    return peak;
  };
  EXPECT_GT(peak_for(aware), 3 * peak_for(naive));
}

// The model's DP as a plain two-grid pass, kept as the oracle for the
// row-streamed grid: survival P(metric > m) at every distinct metric m.
std::map<std::uint32_t, double> two_grid_survival(
    const fpga::CorrelatorTemplate& tpl) {
  constexpr int kMax = 384;
  constexpr int kDim = 2 * kMax + 1;
  std::vector<double> cur(static_cast<std::size_t>(kDim) * kDim, 0.0);
  std::vector<double> next(cur.size(), 0.0);
  const auto at = [](std::vector<double>& v, int re, int im) -> double& {
    return v[static_cast<std::size_t>(re + kMax) * kDim + (im + kMax)];
  };
  at(cur, 0, 0) = 1.0;
  for (std::size_t k = 0; k < fpga::kCorrelatorLength; ++k) {
    const int ci = tpl.coef_i[k];
    const int cq = tpl.coef_q[k];
    const int dre[4] = {ci + cq, ci - cq, -ci + cq, -ci - cq};
    const int dim[4] = {ci - cq, -ci - cq, ci + cq, -ci + cq};
    std::fill(next.begin(), next.end(), 0.0);
    const int reach = static_cast<int>(k + 1) * 6;
    for (int re = -reach; re <= reach; ++re)
      for (int im = -reach; im <= reach; ++im) {
        const double p = at(cur, re, im);
        if (p == 0.0) continue;
        for (int c = 0; c < 4; ++c)
          at(next, std::clamp(re + dre[c], -kMax, kMax),
             std::clamp(im + dim[c], -kMax, kMax)) += 0.25 * p;
      }
    cur.swap(next);
  }
  std::map<std::uint32_t, double> pmf;
  for (int re = -kMax; re <= kMax; ++re)
    for (int im = -kMax; im <= kMax; ++im)
      if (const double p = at(cur, re, im); p > 0.0)
        pmf[static_cast<std::uint32_t>(re * re + im * im)] += p;
  double tail = 1.0;
  for (auto& [metric, p] : pmf) {
    tail -= p;
    p = std::max(tail, 0.0);
  }
  return pmf;
}

TEST(Calibration, RowStreamedDpIsBitIdenticalToTwoGridPass) {
  // A random template with coefficients down to -4, so some taps move
  // mass further than the 6-per-tap reach the DP scans.
  dsp::Xoshiro256 rng(0xCA1);
  fpga::CorrelatorTemplate random;
  for (std::size_t k = 0; k < fpga::kCorrelatorLength; ++k) {
    random.coef_i[k] = static_cast<int>(rng.uniform_int(8)) - 4;
    random.coef_q[k] = static_cast<int>(rng.uniform_int(8)) - 4;
  }
  for (const auto& tpl : {wifi_long_preamble_template(),
                          wifi_short_preamble_template(), random}) {
    const XcorrNoiseModel model(tpl);
    const std::map<std::uint32_t, double> want = two_grid_survival(tpl);
    ASSERT_GT(want.size(), 1000u);
    for (const auto& [metric, survival] : want)
      ASSERT_EQ(model.exceedance_probability(metric), survival) << metric;
  }
}

TEST(Calibration, ExceedanceProbabilityMonotone) {
  const XcorrNoiseModel model(wifi_long_preamble_template());
  double prev = 1.0;
  for (std::uint32_t t = 0; t < 20000; t += 500) {
    const double p = model.exceedance_probability(t);
    EXPECT_LE(p, prev);
    EXPECT_GE(p, 0.0);
    prev = p;
  }
  // P(metric > 0) = 1 - P(metric == 0); a small point mass at zero exists.
  EXPECT_GT(model.exceedance_probability(0), 0.99);
  EXPECT_EQ(model.exceedance_probability(0xFFFFFFFFu), 0.0);
}

TEST(Calibration, ThresholdForRateIsConsistent) {
  const XcorrNoiseModel model(wifi_short_preamble_template());
  for (const double target : {0.52, 0.083, 0.059}) {
    const std::uint32_t threshold = model.threshold_for_rate(target);
    EXPECT_LE(model.false_alarm_rate_per_s(threshold), target);
    // One distribution step below the returned threshold the rate
    // exceeds the target (tightness) — check via a slightly lower value.
    if (threshold > 500) {
      EXPECT_GT(model.false_alarm_rate_per_s(threshold - 500), target * 0.8);
    }
  }
}

TEST(Calibration, PaperFalseAlarmRatesGiveSaneThresholds) {
  const XcorrNoiseModel model(wifi_long_preamble_template());
  const auto t_low_fa = model.threshold_for_rate(0.083);
  const auto t_high_fa = model.threshold_for_rate(0.52);
  // Lower false-alarm target -> higher threshold (paper Fig. 6 narrative).
  EXPECT_GT(t_low_fa, t_high_fa);
  EXPECT_GT(t_high_fa, 1000u);
  EXPECT_LT(t_low_fa, 50000u);
}

TEST(Calibration, EmpiricalCountAgreesWithModelOrderOfMagnitude) {
  // Pick a threshold with a deliberately HIGH false-alarm rate so a short
  // empirical run has statistics, then compare against the exact model.
  const auto tpl = wifi_long_preamble_template();
  const XcorrNoiseModel model(tpl);
  const std::uint32_t threshold = model.threshold_for_rate(2000.0);
  const double seconds = 0.2;
  const auto counted = count_noise_triggers(tpl, threshold, seconds, 31);
  const double expected = model.false_alarm_rate_per_s(threshold) * seconds;
  EXPECT_GT(static_cast<double>(counted), expected * 0.2);
  EXPECT_LT(static_cast<double>(counted), expected * 5.0 + 10.0);
}

}  // namespace
}  // namespace rjf::core
