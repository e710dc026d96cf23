#include "dsp/resampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <utility>

#include "core/scenario.h"
#include "dsp/db.h"
#include "dsp/noise.h"
#include "dsp/rng.h"

namespace rjf::dsp {
namespace {

cvec tone(double freq_hz, double rate_hz, std::size_t n) {
  cvec x(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double p = 2.0 * std::numbers::pi * freq_hz * k / rate_hz;
    x[k] = cfloat{static_cast<float>(std::cos(p)), static_cast<float>(std::sin(p))};
  }
  return x;
}

TEST(Resampler, RejectsNonPositiveRates) {
  EXPECT_THROW(Resampler(0.0, 25e6), std::invalid_argument);
  EXPECT_THROW(Resampler(20e6, -1.0), std::invalid_argument);
  // Non-finite rates, and finite rates whose ratio is not, used to reach
  // a float-to-integer conversion of a NaN or infinite output length.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Resampler(kNan, 25e6), std::invalid_argument);
  EXPECT_THROW(Resampler(20e6, kNan), std::invalid_argument);
  EXPECT_THROW(Resampler(kInf, 25e6), std::invalid_argument);
  EXPECT_THROW(Resampler(20e6, kInf), std::invalid_argument);
  EXPECT_THROW(Resampler(1e-300, 1e300), std::invalid_argument);
  EXPECT_THROW(Resampler(1e300, 1e-300), std::invalid_argument);
  // Delays outside [0, 1) (NaN too) reached a float-to-integer conversion
  // of the kernel centre; both paths reject them, empty input included.
  const Resampler rs(20e6, 25e6);
  const cvec in(64, cfloat{1.0f, 0.0f});
  for (const double d : {-0.25, 1.0, 3.5, kNan, kInf, -kInf}) {
    EXPECT_THROW((void)rs.resample(in, d), std::invalid_argument) << d;
    EXPECT_THROW((void)rs.resample_reference(in, d), std::invalid_argument) << d;
    EXPECT_THROW((void)rs.resample({}, d), std::invalid_argument) << d;
  }
  // An output length past the address space throws instead of converting.
  EXPECT_THROW((void)Resampler(1.0, 1e300).resample(in), std::length_error);
}

TEST(Resampler, OutputLengthMatchesRatio) {
  const Resampler rs(20e6, 25e6);
  EXPECT_EQ(rs.resample(cvec(1000)).size(), 1250u);
  const Resampler down(25e6, 20e6);
  EXPECT_EQ(down.resample(cvec(1000)).size(), 800u);
}

TEST(Resampler, EmptyInput) {
  const Resampler rs(20e6, 25e6);
  EXPECT_TRUE(rs.resample({}).empty());
}

struct RatioCase {
  double in_rate;
  double out_rate;
};

class ResamplerRatio : public ::testing::TestWithParam<RatioCase> {};

TEST_P(ResamplerRatio, TonePreservedThroughConversion) {
  const auto [in_rate, out_rate] = GetParam();
  const double f = 1e6;  // well inside both Nyquist zones
  const cvec in = tone(f, in_rate, 4000);
  const cvec out = resample(in, in_rate, out_rate);

  // The output should be the same tone at the new rate: check the phase
  // increment in the interior of the buffer.
  const double expected = 2.0 * std::numbers::pi * f / out_rate;
  for (std::size_t k = out.size() / 4; k < out.size() / 2; ++k) {
    const cfloat r = out[k + 1] * std::conj(out[k]);
    EXPECT_NEAR(std::arg(r), expected, 0.02) << "k=" << k;
  }
  // And power should be preserved in the interior.
  const std::span<const cfloat> mid(out.data() + out.size() / 4, out.size() / 2);
  EXPECT_NEAR(mean_power(mid), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRates, ResamplerRatio,
    ::testing::Values(RatioCase{20e6, 25e6},    // WiFi TX -> jammer
                      RatioCase{25e6, 20e6},    // jammer TX -> WiFi RX
                      RatioCase{11.2e6, 25e6},  // WiMAX -> jammer
                      RatioCase{25e6, 11.2e6}));

TEST(Resampler, FractionalDelayShiftsTone) {
  const double rate = 25e6;
  const double f = 2e6;
  const cvec in = tone(f, rate, 2000);
  const Resampler rs(rate, rate);
  const cvec a = rs.resample(in, 0.0);
  const cvec b = rs.resample(in, 0.5);
  // A half-sample delay of a tone is a phase rotation of pi*f/rate... i.e.
  // b[k] ~= tone evaluated half a sample later.
  const double expected_shift = 2.0 * std::numbers::pi * f / rate * 0.5;
  for (std::size_t k = 500; k < 600; ++k) {
    const cfloat r = b[k] * std::conj(a[k]);
    EXPECT_NEAR(std::arg(r), expected_shift, 0.03);
  }
}

TEST(Resampler, DcGainNearUnityMidStream) {
  // A constant input through the Fig. 6 20->25 MSPS conversion must come
  // out at the same level once the 8-tap kernel has full support: the
  // windowed-sinc taps are not renormalised per output point, so this
  // bounds the kernel's DC ripple directly.
  const cvec in(4000, cfloat{1.0f, 0.0f});
  for (const auto& [in_rate, out_rate] :
       {std::pair{20e6, 25e6}, std::pair{25e6, 20e6}, std::pair{11.2e6, 25e6}}) {
    const cvec out = resample(in, in_rate, out_rate);
    for (std::size_t k = out.size() / 4; k < 3 * out.size() / 4; ++k) {
      EXPECT_NEAR(out[k].real(), 1.0f, 0.03f)
          << in_rate << "->" << out_rate << " k=" << k;
      EXPECT_NEAR(out[k].imag(), 0.0f, 0.03f);
    }
  }
}

TEST(Resampler, FractionalDelayMatchesAnalyticTone) {
  // Interpolating a tone at ratio r with fractional delay d must equal the
  // same tone evaluated at input instants m/r + d — amplitude and phase.
  const double in_rate = 20e6;
  const double out_rate = 25e6;
  const double f = 1.5e6;
  const cvec in = tone(f, in_rate, 4000);
  const Resampler rs(in_rate, out_rate);
  for (const double d : {0.125, 0.5, 0.875}) {
    const cvec out = rs.resample(in, d);
    const double ratio = out_rate / in_rate;
    for (std::size_t m = out.size() / 4; m < out.size() / 2; ++m) {
      const double t_in = static_cast<double>(m) / ratio + d;
      const double p = 2.0 * std::numbers::pi * f * t_in / in_rate;
      EXPECT_NEAR(out[m].real(), std::cos(p), 0.03) << "d=" << d << " m=" << m;
      EXPECT_NEAR(out[m].imag(), std::sin(p), 0.03) << "d=" << d << " m=" << m;
    }
  }
}

TEST(Resampler, EdgeErrorConfinedToKernelSupport) {
  // The buffer edges are zero-padded, so outputs near them lose kernel
  // taps and deviate from the true level (overshoot where the missing
  // lobes are negative, droop where positive). The deviation must be
  // bounded and confined to the kernel half-width (4 input samples) —
  // detection captures budget their lead-in/tail around exactly this.
  const cvec in(2000, cfloat{1.0f, 0.0f});
  // Half-sample delay keeps every output instant between input samples, so
  // edge outputs genuinely lose kernel mass (on-grid instants hit the
  // sinc's integer zeros and would mask the effect).
  const cvec out = Resampler(20e6, 25e6).resample(in, 0.5);
  const double ratio = 25.0 / 20.0;
  // The first output draws on input taps 0..4 only (half its support):
  // measurably off unity, but bounded.
  EXPECT_GT(std::abs(std::abs(out.front()) - 1.0f), 0.04f);
  EXPECT_LT(std::abs(std::abs(out.front()) - 1.0f), 0.35f);
  // The last output loses the upper half of its support, main lobe
  // included, so it droops well below full level.
  EXPECT_LT(std::abs(out.back()), 0.85f);
  // Beyond the kernel half-width (in output samples), full level again.
  const auto settled = static_cast<std::size_t>(std::ceil(4.0 * ratio)) + 1;
  for (std::size_t k = settled; k < settled + 50; ++k)
    EXPECT_NEAR(std::abs(out[k]), 1.0f, 0.03f) << "k=" << k;
  for (std::size_t k = out.size() - settled - 50; k < out.size() - settled; ++k)
    EXPECT_NEAR(std::abs(out[k]), 1.0f, 0.03f) << "k=" << k;
}

TEST(Resampler, IdentityRatioReproducesInput) {
  const cvec in = tone(1e6, 25e6, 1000);
  const cvec out = resample(in, 25e6, 25e6);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t k = 100; k < 900; ++k) {
    EXPECT_NEAR(out[k].real(), in[k].real(), 0.02f);
    EXPECT_NEAR(out[k].imag(), in[k].imag(), 0.02f);
  }
}

TEST(Resampler, DownconversionBandLimits) {
  // A tone beyond the output Nyquist must be attenuated when decimating.
  // The 8-tap kernel trades stopband depth for speed, so expect meaningful
  // (not brick-wall) suppression near the band edge.
  const cvec in = tone(11e6, 25e6, 4000);  // > 10 MHz Nyquist of 20 MSPS
  const cvec out = resample(in, 25e6, 20e6);
  const std::span<const cfloat> mid(out.data() + out.size() / 4, out.size() / 2);
  EXPECT_LT(mean_power_db(mid), -6.0);
}

// resample() evaluates the kernel once per distinct fractional offset and
// reuses the taps; resample_reference() evaluates it at every tap. The two
// must agree to the bit, not to a tolerance (DESIGN §12.2).
void expect_bit_identical(const Resampler& rs, std::span<const cfloat> in,
                          double delay, const std::string& what) {
  const cvec memo = rs.resample(in, delay);
  const cvec ref = rs.resample_reference(in, delay);
  ASSERT_EQ(memo.size(), ref.size()) << what;
  if (ref.empty()) return;
  EXPECT_EQ(std::memcmp(memo.data(), ref.data(), ref.size() * sizeof(cfloat)), 0)
      << what << " delay=" << delay;
}

TEST(Resampler, MemoMatchesReferenceBitForBit) {
  constexpr unsigned kPhases = 8;  // DetectionConfig::timing_phases
  // Every protocol-target frame at every plan phase, to the fabric rate.
  for (const char* name : {"wifi_ofdm", "wifi_dsss"}) {
    const core::ProtocolTarget& target = core::target_or_throw(name);
    const Resampler rs(target.native_rate_hz, 25e6);
    for (std::size_t r = 0; r < target.rates.size(); ++r) {
      const cvec frame = core::target_frame(target, r, 100, 0xA5, 0x5D);
      for (unsigned p = 0; p < kPhases; ++p)
        expect_bit_identical(rs, frame, static_cast<double>(p) / kPhases,
                             std::string(name) + " rate " + std::to_string(r));
    }
  }

  // The paper's conversions, both directions, at a spread of delays.
  NoiseSource noise(1.0, 17);
  const cvec block = noise.block(3000);
  for (const auto& [in_rate, out_rate] :
       {std::pair{20e6, 25e6}, std::pair{25e6, 20e6}, std::pair{11e6, 25e6},
        std::pair{11.2e6, 25e6}, std::pair{25e6, 11.2e6}, std::pair{25e6, 25e6}}) {
    const Resampler rs(in_rate, out_rate);
    for (const double d : {0.0, 0.125, 0.5, 0.875, 0.9999999999})
      expect_bit_identical(rs, block, d,
                           std::to_string(in_rate) + "->" + std::to_string(out_rate));
  }

  // Random ratios, delays and lengths, inputs shorter than the kernel
  // (1-8 samples) included.
  Xoshiro256 rng(2024);
  for (int c = 0; c < 160; ++c) {
    const double ratio = 0.3 + 3.0 * rng.uniform();
    const double delay = rng.uniform();
    const std::size_t n = c < 40 ? 1 + static_cast<std::size_t>(c % 8)
                                 : 1 + rng.uniform_int(600);
    const Resampler rs(1e6, ratio * 1e6);
    expect_bit_identical(rs, std::span<const cfloat>(block.data(), n), delay,
                         "case " + std::to_string(c));
  }

  // A long input at an awkward ratio: its output instants take far more
  // distinct fractional offsets than the memo holds, so most outputs go
  // through the direct-evaluation fallback.
  const cvec long_in = noise.block(20000);
  const Resampler awkward(1e6, std::numbers::pi * 1e6);
  for (const double d : {0.0, 0.3141592653589793})
    expect_bit_identical(awkward, long_in, d, "pi ratio");
}

}  // namespace
}  // namespace rjf::dsp
