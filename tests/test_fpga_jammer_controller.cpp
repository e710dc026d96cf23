#include "fpga/jammer_controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dsp/rng.h"

namespace rjf::fpga {
namespace {

TEST(JammerController, IdleUntilTriggered) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 10);
  for (int k = 0; k < 100; ++k) {
    const auto out = ctl.clock(false);
    ASSERT_FALSE(out.rf_active);
  }
  EXPECT_EQ(ctl.jam_count(), 0u);
}

TEST(JammerController, DisabledIgnoresTriggers) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, false, 0, 10);
  const auto out = ctl.clock(true);
  EXPECT_FALSE(out.rf_active);
  for (int k = 0; k < 100; ++k) ASSERT_FALSE(ctl.clock(false).rf_active);
  EXPECT_EQ(ctl.jam_count(), 0u);
}

TEST(JammerController, RfWithinEightCyclesOfTrigger) {
  // Paper §2.4: 1 cycle to initiate + ~7 cycles to fill the DUC = 80 ns.
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 4);
  (void)ctl.clock(true);  // trigger cycle
  int cycles_to_rf = 1;
  bool active = false;
  for (; cycles_to_rf <= 16; ++cycles_to_rf) {
    if (ctl.clock(false).rf_active) {
      active = true;
      break;
    }
  }
  EXPECT_TRUE(active);
  EXPECT_EQ(cycles_to_rf, static_cast<int>(kTxInitCycles));
}

TEST(JammerController, UptimeCountsExactSamples) {
  JammerController ctl;
  const std::uint32_t uptime = 25;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, uptime);
  (void)ctl.clock(true);
  std::uint32_t strobes = 0;
  for (int k = 0; k < 4000; ++k)
    if (ctl.clock(false).sample_strobe) ++strobes;
  EXPECT_EQ(strobes, uptime);
  EXPECT_FALSE(ctl.busy());
}

TEST(JammerController, MinimumUptimeIsOneSample) {
  // Paper: jamming duration from 1 sample time (40 ns).
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 0);  // clamped to 1
  (void)ctl.clock(true);
  std::uint32_t strobes = 0;
  for (int k = 0; k < 100; ++k)
    if (ctl.clock(false).sample_strobe) ++strobes;
  EXPECT_EQ(strobes, 1u);
}

TEST(JammerController, DelayPostponesJamming) {
  JammerController ctl;
  const std::uint32_t delay_samples = 10;
  ctl.configure(JamWaveform::kWhiteNoise, true, delay_samples, 4);
  (void)ctl.clock(true);
  int cycles = 1;
  while (!ctl.clock(false).rf_active && cycles < 1000) ++cycles;
  // Delay (in sample periods) plus the 8-cycle TX init.
  EXPECT_EQ(cycles,
            static_cast<int>(delay_samples * kClocksPerSample + kTxInitCycles));
}

TEST(JammerController, TriggersIgnoredWhileBusy) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 100);
  (void)ctl.clock(true);
  for (int k = 0; k < 50; ++k) (void)ctl.clock(true);  // re-trigger attempts
  EXPECT_EQ(ctl.jam_count(), 1u);
}

TEST(JammerController, ReplayPlaysBackRecordedSamples) {
  JammerController ctl;
  ctl.configure(JamWaveform::kReplay, true, 0, 8);
  // Record a recognisable ramp.
  for (std::int16_t k = 0; k < 512; ++k)
    ctl.record_rx(dsp::IQ16{k, static_cast<std::int16_t>(-k)});
  (void)ctl.clock(true);
  std::vector<dsp::IQ16> played;
  for (int k = 0; k < 200 && played.size() < 8; ++k) {
    const auto out = ctl.clock(false);
    if (out.sample_strobe) played.push_back(out.sample);
  }
  ASSERT_EQ(played.size(), 8u);
  // Playback starts at the oldest recorded sample (write cursor position).
  for (std::size_t k = 0; k < played.size(); ++k) {
    EXPECT_EQ(played[k].i, static_cast<std::int16_t>(k));
    EXPECT_EQ(played[k].q, static_cast<std::int16_t>(-static_cast<int>(k)));
  }
}

TEST(JammerController, HostStreamWaveformCycles) {
  JammerController ctl;
  ctl.configure(JamWaveform::kHostStream, true, 0, 6);
  ctl.set_host_waveform({dsp::IQ16{100, 0}, dsp::IQ16{0, 100}, dsp::IQ16{-100, 0}});
  (void)ctl.clock(true);
  std::vector<dsp::IQ16> played;
  for (int k = 0; k < 200 && played.size() < 6; ++k) {
    const auto out = ctl.clock(false);
    if (out.sample_strobe) played.push_back(out.sample);
  }
  ASSERT_EQ(played.size(), 6u);
  EXPECT_EQ(played[0], (dsp::IQ16{100, 0}));
  EXPECT_EQ(played[3], (dsp::IQ16{100, 0}));  // wrapped around
}

TEST(JammerController, EmptyHostStreamEmitsSilence) {
  JammerController ctl;
  ctl.configure(JamWaveform::kHostStream, true, 0, 3);
  (void)ctl.clock(true);
  for (int k = 0; k < 100; ++k) {
    const auto out = ctl.clock(false);
    if (out.sample_strobe) {
      EXPECT_EQ(out.sample, (dsp::IQ16{0, 0}));
    }
  }
}

TEST(JammerController, WhiteNoiseIsNonConstantAndBounded) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 256);
  (void)ctl.clock(true);
  std::vector<dsp::IQ16> samples;
  for (int k = 0; k < 4000 && samples.size() < 256; ++k) {
    const auto out = ctl.clock(false);
    if (out.sample_strobe) samples.push_back(out.sample);
  }
  ASSERT_EQ(samples.size(), 256u);
  bool varies = false;
  for (std::size_t k = 1; k < samples.size(); ++k)
    varies |= !(samples[k] == samples[0]);
  EXPECT_TRUE(varies);
  for (const auto s : samples) {
    EXPECT_LT(std::abs(static_cast<int>(s.i)), 32768);
    EXPECT_LT(std::abs(static_cast<int>(s.q)), 32768);
  }
}

TEST(JammerController, FastForwardMatchesClockedUptime) {
  // fast_forward must land in the same state as explicit clocking.
  JammerController a, b;
  for (auto* ctl : {&a, &b})
    ctl->configure(JamWaveform::kWhiteNoise, true, 5, 50);
  (void)a.clock(true);
  (void)b.clock(true);

  // a: clocked for 30 sample periods; b: fast-forwarded the same span.
  for (std::uint32_t k = 0; k < 30 * kClocksPerSample; ++k) (void)a.clock(false);
  b.fast_forward(30);
  EXPECT_EQ(a.busy(), b.busy());

  // Continue both to completion and compare total jam extent.
  for (std::uint32_t k = 0; k < 200 * kClocksPerSample; ++k) (void)a.clock(false);
  b.fast_forward(200);
  EXPECT_FALSE(a.busy());
  EXPECT_FALSE(b.busy());
  EXPECT_EQ(a.cycles_jamming(), b.cycles_jamming());
}

TEST(JammerController, FastForwardThroughIdleIsNoop) {
  JammerController ctl;
  ctl.configure(JamWaveform::kWhiteNoise, true, 0, 10);
  ctl.fast_forward(100000);
  EXPECT_FALSE(ctl.busy());
  EXPECT_EQ(ctl.jam_count(), 0u);
}

// One jammer personality, with the replay ring filled past one wrap.
struct Personality {
  JamWaveform waveform;
  std::uint32_t delay;
  std::uint32_t uptime;
  std::vector<dsp::IQ16> host;

  [[nodiscard]] JammerController make() const {
    JammerController ctl;
    ctl.configure(waveform, true, delay, uptime);
    ctl.set_host_waveform(host);
    for (std::int16_t k = 0; k < 700; ++k)
      ctl.record_rx(dsp::IQ16{k, static_cast<std::int16_t>(3 * k)});
    return ctl;
  }
  // Clocks from a trigger to a few past the end of its burst.
  [[nodiscard]] std::uint64_t burst_clocks() const {
    return 1 + std::uint64_t{delay} * kClocksPerSample + kTxInitCycles +
           std::uint64_t{std::max(uptime, 1u)} * kClocksPerSample + 4;
  }
  [[nodiscard]] std::string name() const {
    return "waveform " + std::to_string(static_cast<int>(waveform)) +
           " delay " + std::to_string(delay) + " uptime " +
           std::to_string(uptime) + " host " + std::to_string(host.size());
  }
};

std::vector<Personality> personalities() {
  const std::vector<dsp::IQ16> host{{100, 0}, {0, 100}, {-100, 0}};
  std::vector<Personality> out;
  for (const JamWaveform w : {JamWaveform::kWhiteNoise, JamWaveform::kReplay,
                              JamWaveform::kHostStream})
    for (const std::uint32_t delay : {0u, 1u, 3u})
      for (const std::uint32_t uptime : {0u, 1u, 2u, 5u})
        out.push_back({w, delay, uptime,
                       w == JamWaveform::kHostStream ? host
                                                     : std::vector<dsp::IQ16>{}});
  // An empty host stream emits silence and never moves its cursor.
  out.push_back({JamWaveform::kHostStream, 1, 4, {}});
  return out;
}

// advance(n) + settle_tx() against n clock(false) calls from `start`.
void expect_advance_matches(const JammerController& start, std::uint64_t n,
                            const std::string& where) {
  JammerController oracle = start;
  for (std::uint64_t k = 0; k < n; ++k) (void)oracle.clock(false);
  JammerController fast = start;
  fast.advance(n);
  fast.settle_tx();
  ASSERT_TRUE(fast == oracle) << where << ", n " << n;
}

TEST(JammerController, AdvanceMatchesPerClockOracleFromEveryState) {
  // From the trigger clock on, every state, countdown and strobe phase a
  // burst passes through, advanced by every count up to past its end.
  for (const Personality& p : personalities()) {
    JammerController ctl = p.make();
    (void)ctl.clock(true);
    for (std::uint64_t k = 0; k <= p.burst_clocks(); ++k) {
      for (std::uint64_t n = 0; n <= p.burst_clocks() + 2; ++n)
        expect_advance_matches(ctl, n, p.name() + ", clock " + std::to_string(k));
      if (::testing::Test::HasFatalFailure()) return;
      (void)ctl.clock(false);
    }
    EXPECT_FALSE(ctl.busy()) << p.name();
  }
  // A host stream swapped for a shorter one mid-burst leaves the cursor
  // past the new end; stepping reduces it on the next sample.
  JammerController ctl;
  ctl.configure(JamWaveform::kHostStream, true, 0, 40);
  ctl.set_host_waveform({{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}});
  (void)ctl.clock(true);
  for (std::uint32_t k = 0; k < kTxInitCycles + 3 * kClocksPerSample; ++k)
    (void)ctl.clock(false);
  ctl.set_host_waveform({{7, 7}, {8, 8}});
  for (std::uint64_t n = 0; n <= 200; ++n)
    expect_advance_matches(ctl, n, "shrunk host stream");
}

TEST(JammerController, ClockSampleMatchesFourClocksInStep) {
  // Random triggers (also while busy) at sample boundaries, the replay ring
  // recording as it does in the block loop: the per-sample step, generated
  // or owed, against kClocksPerSample clock() calls.
  for (const Personality& p : personalities()) {
    JammerController stepped = p.make();
    JammerController generated = p.make();
    JammerController owed = p.make();
    dsp::Xoshiro256 rng(0x5A3);
    std::uint64_t rf_samples = 0;
    for (std::int16_t s = 0; s < 120; ++s) {
      const std::string where = p.name() + ", sample " + std::to_string(s);
      const dsp::IQ16 rx{static_cast<std::int16_t>(-s), s};
      for (JammerController* ctl : {&stepped, &generated, &owed})
        ctl->record_rx(rx);
      const bool trigger = rng.uniform_int(6) == 0;
      ASSERT_TRUE(stepped.sample_aligned()) << where;
      JammerController::TxOut ticks[kClocksPerSample];
      for (std::uint32_t c = 0; c < kClocksPerSample; ++c)
        ticks[c] = stepped.clock(c == 0 && trigger);
      const JammerController::SampleTx a =
          generated.clock_sample<true>(trigger);
      const JammerController::SampleTx b = owed.clock_sample<false>(trigger);
      EXPECT_EQ(a.rf_clocks, b.rf_clocks) << where;
      for (std::uint32_t c = 0; c < kClocksPerSample; ++c) {
        ASSERT_EQ(ticks[c].rf_active, c < a.rf_clocks) << where << " clock " << c;
        ASSERT_EQ(ticks[c].sample_strobe, c == 0 && a.rf_clocks > 0)
            << where << " clock " << c;
      }
      if (a.rf_clocks > 0) {
        ++rf_samples;
        EXPECT_EQ(ticks[0].sample, a.sample) << where;
      }
      ASSERT_TRUE(generated == stepped) << where;
      // `owed` keeps its debt across samples and bursts, as in a block.
      JammerController settled = owed;
      settled.settle_tx();
      ASSERT_TRUE(settled == stepped) << where;
    }
    EXPECT_GT(rf_samples, 0u) << p.name();
    EXPECT_GT(stepped.jam_count(), 1u) << p.name();
  }
}

// An independent model of the generator for jumps too long to step: the
// right-shift Galois step maps the state polynomial S(x) (bit i is the
// coefficient of x^i) to S(x) / x modulo P(x) = 1 + x T(x), T the tap
// mask, and 1/x = T(x) there. So k steps multiply by T(x)^k mod P(x).
constexpr std::uint64_t kTaps = 0xB4BCD35Cu;

std::uint64_t gf2_mulmod(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kPoly = (kTaps << 1) | 1u;
  std::uint64_t r = 0;
  for (; b != 0; b >>= 1) {
    if ((b & 1u) != 0) r ^= a;
    a <<= 1;
    if (((a >> 32) & 1u) != 0) a ^= kPoly;
  }
  return r;
}

std::uint64_t poly_jump(std::uint64_t state, std::uint64_t samples) {
  // T(x)^(8 samples), squaring T^8 along the bits of `samples`.
  std::uint64_t base = kTaps;
  for (int k = 0; k < 3; ++k) base = gf2_mulmod(base, base);
  std::uint64_t power = 1;
  for (; samples != 0; samples >>= 1) {
    if ((samples & 1u) != 0) power = gf2_mulmod(power, base);
    base = gf2_mulmod(base, base);
  }
  return gf2_mulmod(state, power);
}

TEST(JammerController, LfsrJumpMatchesStepping) {
  std::vector<std::uint64_t> counts = {0, 1, 7, 8};
  for (int k = 1; k <= 20; ++k) {
    counts.push_back((std::uint64_t{1} << k) - 1);
    counts.push_back((std::uint64_t{1} << k) + 1);
  }
  std::sort(counts.begin(), counts.end());
  const hw::UInt<32> seed(0xACE1ACE1u);
  hw::UInt<32> stepped = seed;
  std::uint64_t at = 0;
  for (const std::uint64_t n : counts) {
    for (; at < n; ++at)
      for (int s = 0; s < 8; ++s) stepped = lfsr_step(stepped);
    EXPECT_EQ(lfsr_jump(seed, n).u64(), stepped.u64()) << "samples " << n;
    EXPECT_EQ(poly_jump(seed.u64(), n), stepped.u64()) << "samples " << n;
  }
  // Random states and jumps up to 2^40 samples against the polynomial model.
  dsp::Xoshiro256 rng(0x1F5);
  for (int t = 0; t < 500; ++t) {
    const std::uint64_t state = rng.next() & 0xFFFFFFFFu;
    const std::uint64_t n = rng.next() >> 24;
    EXPECT_EQ(lfsr_jump(hw::UInt<32>(state), n).u64(), poly_jump(state, n))
        << "state " << state << " samples " << n;
  }
}

TEST(JammerController, LoadFromRegisters) {
  RegisterFile regs;
  regs.set_jammer(JamWaveform::kReplay, true, 7);
  regs.write(Reg::kJamDuration, 123);
  JammerController ctl;
  ctl.load_from_registers(regs);
  (void)ctl.clock(true);
  EXPECT_TRUE(ctl.busy());
  EXPECT_EQ(ctl.jam_count(), 1u);
}

}  // namespace
}  // namespace rjf::fpga
