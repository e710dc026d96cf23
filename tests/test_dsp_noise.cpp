// Block Box–Muller noise: tier bit-identity, the complex_gaussian oracle,
// and one sequence under any mix of sample()/block()/add_to().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "dsp/noise.h"
#include "dsp/rng.h"
#include "dsp/simd/box_muller.h"
#include "dsp/simd/dispatch.h"

namespace rjf::dsp {
namespace {

// Distance in representable floats (0 when equal, +0 and -0 included).
std::uint32_t float_ulps(float a, float b) {
  auto ordered = [](float x) {
    const auto i = std::bit_cast<std::int32_t>(x);
    return i < 0 ? static_cast<std::int64_t>(INT32_MIN) - i
                 : static_cast<std::int64_t>(i);
  };
  return static_cast<std::uint32_t>(std::llabs(ordered(a) - ordered(b)));
}

TEST(BoxMuller, EveryHostTierGivesBitIdenticalOutput) {
  // Random uniforms drawn as NoiseSource draws them, plus the domain's
  // edges: u1 = 1 (log 0), the smallest u1 = 2^-53, and theta at and
  // either side of every quadrant boundary.
  std::vector<double> u1;
  std::vector<double> u2;
  for (const double e : {1.0, 0x1.0p-53, 0.5, 1.0 - 0x1.0p-53}) {
    for (const double q : {0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875,
                           1.0 - 0x1.0p-53}) {
      u1.push_back(e);
      u2.push_back(q);
      u1.push_back(e);
      u2.push_back(std::nextafter(q, 1.0));
    }
  }
  Xoshiro256 rng(derive_seed(0xB0C5, 0));
  while (u1.size() < (1u << 16)) {
    u1.push_back(1.0 - rng.uniform());
    u2.push_back(rng.uniform());
  }
  const std::size_t n = u1.size() - u1.size() % simd::kBoxMullerGranule;

  std::vector<double> ref_re(n), ref_im(n);
  simd::box_muller(simd::Isa::kScalar, u1.data(), u2.data(), n, ref_re.data(),
                   ref_im.data());
  for (const simd::Isa isa : {simd::Isa::kSse42, simd::Isa::kAvx2}) {
    if (static_cast<int>(isa) > static_cast<int>(simd::active_isa())) continue;
    std::vector<double> re(n), im(n);
    simd::box_muller(isa, u1.data(), u2.data(), n, re.data(), im.data());
    EXPECT_EQ(std::memcmp(re.data(), ref_re.data(), n * sizeof(double)), 0)
        << simd::isa_name(isa);
    EXPECT_EQ(std::memcmp(im.data(), ref_im.data(), n * sizeof(double)), 0)
        << simd::isa_name(isa);
  }
}

TEST(NoiseSource, MatchesComplexGaussianOracleWithinOneUlp) {
  // 10.24 M complex samples over four streams and powers; each component
  // must sit within 1 float ulp of Xoshiro256::complex_gaussian, and at
  // most 10 of the 20.48 M values may differ at all.
  constexpr std::size_t kPerStream = 2'560'000;
  const double powers[] = {1.0, 0.01, 1e-6, 4.0};
  std::uint64_t differing = 0;
  std::uint32_t worst = 0;
  for (std::uint64_t s = 0; s < 4; ++s) {
    const std::uint64_t seed = derive_seed(0x0AC1E, s);
    NoiseSource noise(powers[s], seed);
    Xoshiro256 oracle(seed);
    for (std::size_t k = 0; k < kPerStream; ++k) {
      const cfloat got = noise.sample();
      const cfloat want = oracle.complex_gaussian(powers[s]);
      const std::uint32_t d_re = float_ulps(got.real(), want.real());
      const std::uint32_t d_im = float_ulps(got.imag(), want.imag());
      differing += (d_re != 0) + (d_im != 0);
      worst = std::max({worst, d_re, d_im});
    }
  }
  EXPECT_LE(worst, 1u);
  EXPECT_LE(differing, 10u);
}

TEST(NoiseSource, AnyMixOfCallsYieldsOneSequence) {
  constexpr std::size_t kTotal = 5000;
  NoiseSource reference(0.3, 77);
  const cvec want = reference.block(kTotal);

  // Chunks that start and end on and off the 64-pair refill boundary,
  // cycling through the three ways to take samples.
  NoiseSource mixed(0.3, 77);
  cvec got;
  const std::size_t chunks[] = {1, 3, 60, 64, 65, 127, 2, 200, 7, 128};
  std::size_t c = 0;
  while (got.size() < kTotal) {
    const std::size_t len = std::min(chunks[c % 10], kTotal - got.size());
    switch (c % 3) {
      case 0:
        for (std::size_t i = 0; i < len; ++i) got.push_back(mixed.sample());
        break;
      case 1: {
        const cvec b = mixed.block(len);
        got.insert(got.end(), b.begin(), b.end());
        break;
      }
      case 2: {
        cvec zeros(len);
        mixed.add_to(zeros);
        got.insert(got.end(), zeros.begin(), zeros.end());
        break;
      }
    }
    ++c;
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < kTotal; ++k) EXPECT_EQ(got[k], want[k]) << k;
}

}  // namespace
}  // namespace rjf::dsp
