#include "radio/adc_dac.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "dsp/rng.h"

namespace rjf::radio {
namespace {

TEST(Adc, ZeroInZeroOut) {
  const Adc adc;
  EXPECT_EQ(adc.sample(dsp::cfloat{}), (dsp::IQ16{0, 0}));
}

TEST(Adc, FourteenBitQuantisationStep) {
  const Adc adc(14);
  // One 14-bit LSB is 1/8192 of full scale, left-justified by 2 bits.
  const auto s = adc.sample(dsp::cfloat{1.0f / 8192.0f, 0.0f});
  EXPECT_EQ(s.i, 1 << 2);
}

TEST(Adc, ClipsAndFlags) {
  const Adc adc(14);
  const dsp::cvec hot(10, dsp::cfloat{2.0f, -2.0f});
  const auto out = adc.convert(hot);
  EXPECT_TRUE(adc.clipped());
  EXPECT_EQ(out[0].i, static_cast<std::int16_t>(8191 << 2));
  EXPECT_EQ(out[0].q, static_cast<std::int16_t>(-8192 << 2));
}

TEST(Adc, CleanSignalDoesNotFlag) {
  const Adc adc(14);
  (void)adc.convert(dsp::cvec(10, dsp::cfloat{0.5f, -0.5f}));
  EXPECT_FALSE(adc.clipped());
}

TEST(Adc, TopRepresentableCodeDoesNotFlagClip) {
  // Regression: a sample that scales to exactly the top code (levels-1 =
  // 8191 at 14 bits) is quantised without loss; the pre-fix `scaled >=
  // levels-1` comparison flagged it as clipped anyway.
  const Adc adc(14);
  const auto out =
      adc.convert(dsp::cvec(1, dsp::cfloat{8191.0f / 8192.0f, 0.0f}));
  EXPECT_EQ(out[0].i, static_cast<std::int16_t>(8191 << 2));
  EXPECT_FALSE(adc.clipped());
  // Bottom representable code -levels is equally lossless.
  (void)adc.convert(dsp::cvec(1, dsp::cfloat{-1.0f, 0.0f}));
  EXPECT_FALSE(adc.clipped());
  // One code beyond the top is a genuine clip.
  (void)adc.convert(dsp::cvec(1, dsp::cfloat{8192.0f / 8192.0f, 0.0f}));
  EXPECT_TRUE(adc.clipped());
}

TEST(Adc, RoundingIntoRangeIsNotClipping) {
  // 8191.4/8192 rounds down to the top code: quantisation error only.
  const Adc adc(14);
  (void)adc.convert(dsp::cvec(1, dsp::cfloat{8191.4f / 8192.0f, 0.0f}));
  EXPECT_FALSE(adc.clipped());
  // 8191.6/8192 rounds to 8192, beyond the range: clips.
  (void)adc.convert(dsp::cvec(1, dsp::cfloat{8191.6f / 8192.0f, 0.0f}));
  EXPECT_TRUE(adc.clipped());
}

TEST(Adc, PerSampleClipFlagIsStickyUntilCleared) {
  // sample() participates in clip reporting: the flag ORs across calls and
  // clear_clip() re-arms it, matching convert()'s block semantics.
  const Adc adc(14);
  (void)adc.sample(dsp::cfloat{2.0f, 0.0f});
  EXPECT_TRUE(adc.clipped());
  (void)adc.sample(dsp::cfloat{0.1f, 0.0f});
  EXPECT_TRUE(adc.clipped());  // sticky across clean samples
  adc.clear_clip();
  EXPECT_FALSE(adc.clipped());
  (void)adc.sample(dsp::cfloat{0.1f, 0.0f});
  EXPECT_FALSE(adc.clipped());
  // convert() resets on entry, so a prior per-sample clip doesn't leak in.
  (void)adc.sample(dsp::cfloat{-3.0f, 0.0f});
  (void)adc.convert(dsp::cvec(4, dsp::cfloat{0.25f, 0.0f}));
  EXPECT_FALSE(adc.clipped());
}

TEST(Adc, ConvertMatchesPerSampleOracleAtEveryWidth) {
  // The block kernel against sample(): codes and the sticky clip flag, at
  // every width, on the values a quantiser gets wrong first.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  dsp::Xoshiro256 rng(0xADC);
  for (unsigned bits = 2; bits <= 16; ++bits) {
    const Adc adc(bits);
    const float levels = static_cast<float>(1u << (bits - 1));
    std::vector<float> rails = {0.0f, -0.0f, nan, -nan, inf, -inf, 1e30f,
                                -1e30f, denorm, -denorm, 1e-40f, -1e-40f,
                                std::numeric_limits<float>::min(), 1.0f,
                                -1.0f};
    // Ties and their neighbours: the clip edges ±(levels ∓ ½) and
    // round-half-even between in-range codes.
    for (const float code : {levels - 0.5f, levels + 0.5f, levels - 1.5f,
                             0.5f, 1.5f, 2.5f, levels - 1.0f, levels}) {
      for (const float sign : {1.0f, -1.0f}) {
        const float tie = sign * code / levels;
        rails.push_back(tie);
        rails.push_back(std::nextafter(tie, inf));
        rails.push_back(std::nextafter(tie, -inf));
      }
    }
    for (int k = 0; k < 200; ++k)
      rails.push_back(static_cast<float>(3.0 * rng.uniform() - 1.5));

    // Each rail alone, as I and as Q, so each clip flag is checked on its
    // own; then the whole set in one block whose length leaves a tail.
    std::vector<dsp::cvec> blocks;
    for (const float r : rails) {
      blocks.push_back({dsp::cfloat{r, 0.25f}});
      blocks.push_back({dsp::cfloat{-0.25f, r}});
    }
    dsp::cvec all;
    for (std::size_t k = 0; k + 1 < rails.size(); k += 2)
      all.push_back(dsp::cfloat{rails[k], rails[k + 1]});
    blocks.push_back(all);
    all.pop_back();
    blocks.push_back(all);

    for (const dsp::cvec& block : blocks) {
      adc.clear_clip();
      dsp::iqvec want;
      for (const dsp::cfloat s : block) want.push_back(adc.sample(s));
      const bool want_clip = adc.clipped();
      const dsp::iqvec got = adc.convert(block);
      ASSERT_EQ(got, want) << bits << " bits, first rail " << block[0];
      ASSERT_EQ(adc.clipped(), want_clip)
          << bits << " bits, first rail " << block[0];
    }
  }
}

TEST(Adc, SaturatesNonFiniteInputs) {
  const Adc adc(14);
  const float inf = std::numeric_limits<float>::infinity();
  const auto top = static_cast<std::int16_t>(8191 << 2);
  const auto bottom = static_cast<std::int16_t>(-8192 << 2);
  EXPECT_EQ(adc.sample(dsp::cfloat{inf, -inf}), (dsp::IQ16{top, bottom}));
  EXPECT_EQ(adc.sample(dsp::cfloat{1e30f, -1e30f}), (dsp::IQ16{top, bottom}));
  EXPECT_TRUE(adc.clipped());
  adc.clear_clip();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(adc.sample(dsp::cfloat{nan, 0.0f}), (dsp::IQ16{bottom, 0}));
  EXPECT_TRUE(adc.clipped());
}

TEST(Adc, BitsClamped) {
  EXPECT_EQ(Adc(1).bits(), 2u);
  EXPECT_EQ(Adc(20).bits(), 16u);
  EXPECT_EQ(Adc(14).bits(), 14u);
}

TEST(AdcDac, RoundTripWithinLsb) {
  const Adc adc(14);
  const Dac dac;
  for (const float x : {0.3f, -0.7f, 0.001f, 0.999f}) {
    const dsp::cfloat in{x, -x};
    const dsp::cfloat out = dac.sample(adc.sample(in));
    EXPECT_NEAR(out.real(), in.real(), 1.0f / 8192.0f) << x;
    EXPECT_NEAR(out.imag(), in.imag(), 1.0f / 8192.0f) << x;
  }
}

TEST(Dac, BulkConversion) {
  const Dac dac;
  const dsp::iqvec in(5, dsp::IQ16{16384, -16384});
  const auto out = dac.convert(in);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_FLOAT_EQ(out[0].real(), 0.5f);
  EXPECT_FLOAT_EQ(out[0].imag(), -0.5f);
}

}  // namespace
}  // namespace rjf::radio
