// Equivalence tests for the host fast path (DESIGN.md "Host fast path"):
// the bit-parallel CrossCorrelator::step() against the scalar shift-register
// reference, and DspCore::run_block() against the per-tick cadence — both
// must be bit-identical, including trigger edges and VITA timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/fabric_units.h"
#include "core/templates.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "dsp/rng.h"
#include "fpga/cross_correlator.h"
#include "fpga/dsp_core.h"
#include "obs/event_ring.h"
#include "phy80211/preamble.h"

namespace rjf::fpga {
namespace {

// Drive two instances of the same correlator config through the fast and
// reference paths and require identical outputs on every sample.
void expect_paths_match(const CorrelatorTemplate& tpl, std::uint32_t threshold,
                        std::span<const dsp::IQ16> stream) {
  CrossCorrelator fast;
  CrossCorrelator ref;
  fast.set_coefficients(tpl.coef_i, tpl.coef_q);
  ref.set_coefficients(tpl.coef_i, tpl.coef_q);
  fast.set_threshold(threshold);
  ref.set_threshold(threshold);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    const auto a = fast.step(stream[k]);
    const auto b = ref.step_reference(stream[k]);
    ASSERT_EQ(a.metric, b.metric) << "sample " << k;
    ASSERT_EQ(a.trigger, b.trigger) << "sample " << k;
  }
}

dsp::iqvec noise_stream(std::size_t n, double power, std::uint64_t seed) {
  dsp::NoiseSource noise(power, seed);
  return dsp::to_iq16(noise.block(n));
}

// 20 MSPS standard preamble resampled to the fabric's 25 MSPS grid.
dsp::iqvec fabric_preamble(const dsp::cvec& wave, float scale) {
  const dsp::Resampler rs(20e6, 25e6);
  const dsp::cvec at25 = rs.resample(wave);
  dsp::iqvec out(at25.size());
  for (std::size_t k = 0; k < at25.size(); ++k)
    out[k] = dsp::to_iq16(at25[k] * scale);
  return out;
}

TEST(FastPathCorrelator, MatchesReferenceOnRandomNoise) {
  const auto tpl = core::wifi_long_preamble_template();
  expect_paths_match(tpl, 1u << 14, noise_stream(50000, 0.05, 11));
}

TEST(FastPathCorrelator, MatchesReferenceOnRandomTemplates) {
  // Random coefficients across the full 3-bit range (including the -4
  // boundary that exercises the sign bit-plane) against random signs.
  dsp::Xoshiro256 rng(0xFA57);
  for (int round = 0; round < 8; ++round) {
    CorrelatorTemplate tpl;
    for (std::size_t k = 0; k < kCorrelatorLength; ++k) {
      tpl.coef_i[k] = static_cast<int>(rng.uniform() * 8.0) - 4;
      tpl.coef_q[k] = static_cast<int>(rng.uniform() * 8.0) - 4;
    }
    expect_paths_match(tpl, 1u << 12,
                       noise_stream(4000, 0.2, 0x1000u + round));
  }
}

TEST(FastPathCorrelator, MatchesReferenceOnShortPreambleStream) {
  const auto tpl = core::wifi_short_preamble_template();
  dsp::iqvec stream = noise_stream(5000, 0.001, 21);
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);
  stream.insert(stream.end(), burst.begin(), burst.end());
  const dsp::iqvec tail = noise_stream(5000, 0.001, 22);
  stream.insert(stream.end(), tail.begin(), tail.end());

  // Make sure the stream actually crosses the trigger threshold somewhere,
  // so the comparison covers the trigger path, not just quiet metrics.
  CrossCorrelator probe;
  probe.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::uint32_t peak = 0;
  for (const auto s : stream) peak = std::max(peak, probe.step(s).metric);
  ASSERT_GT(peak, 0u);
  expect_paths_match(tpl, peak * 3 / 4, stream);
}

TEST(FastPathCorrelator, MatchesReferenceOnLongPreambleStream) {
  const auto tpl = core::wifi_long_preamble_template();
  dsp::iqvec stream = noise_stream(5000, 0.001, 31);
  const dsp::iqvec burst = fabric_preamble(phy80211::long_preamble(), 0.5f);
  stream.insert(stream.end(), burst.begin(), burst.end());

  CrossCorrelator probe;
  probe.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::uint32_t peak = 0;
  for (const auto s : stream) peak = std::max(peak, probe.step(s).metric);
  ASSERT_GT(peak, 0u);
  expect_paths_match(tpl, peak * 3 / 4, stream);
}

TEST(FastPathCorrelator, ThresholdBoundaryAgreesAcrossPaths) {
  const auto tpl = core::wifi_short_preamble_template();
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);

  CrossCorrelator probe;
  probe.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::uint32_t peak = 0;
  for (const auto s : burst) peak = std::max(peak, probe.step(s).metric);
  ASSERT_GT(peak, 0u);

  // metric > threshold is strict: at threshold == peak neither path may
  // trigger; one below, both must.
  for (const std::uint32_t threshold : {peak, peak - 1}) {
    CrossCorrelator fast;
    CrossCorrelator ref;
    fast.set_coefficients(tpl.coef_i, tpl.coef_q);
    ref.set_coefficients(tpl.coef_i, tpl.coef_q);
    fast.set_threshold(threshold);
    ref.set_threshold(threshold);
    bool fast_fired = false;
    bool ref_fired = false;
    for (const auto s : burst) {
      fast_fired |= fast.step(s).trigger;
      ref_fired |= ref.step_reference(s).trigger;
    }
    EXPECT_EQ(fast_fired, ref_fired) << "threshold " << threshold;
    EXPECT_EQ(fast_fired, threshold < peak) << "threshold " << threshold;
  }
}

TEST(FastPathCorrelator, MaxMetricCachedAtLoadTime) {
  const auto tpl = core::wifi_long_preamble_template();
  CrossCorrelator corr;
  corr.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::int64_t sum = 0;
  for (std::size_t k = 0; k < kCorrelatorLength; ++k)
    sum += std::abs(tpl.coef_i[k]) + std::abs(tpl.coef_q[k]);
  EXPECT_EQ(corr.max_metric(), static_cast<std::uint32_t>(sum * sum));

  // Reloading different coefficients must refresh the cache.
  const auto tpl2 = core::wifi_short_preamble_template();
  corr.set_coefficients(tpl2.coef_i, tpl2.coef_q);
  sum = 0;
  for (std::size_t k = 0; k < kCorrelatorLength; ++k)
    sum += std::abs(tpl2.coef_i[k]) + std::abs(tpl2.coef_q[k]);
  EXPECT_EQ(corr.max_metric(), static_cast<std::uint32_t>(sum * sum));
}

// ---------------------------------------------------------------------------
// run_block() vs per-sample tick() equivalence.

void expect_outputs_equal(const CoreOutput& a, const CoreOutput& b,
                          std::uint64_t tick_index) {
  ASSERT_EQ(a.rx_strobe, b.rx_strobe) << "tick " << tick_index;
  ASSERT_EQ(a.xcorr_trigger, b.xcorr_trigger) << "tick " << tick_index;
  ASSERT_EQ(a.energy_high, b.energy_high) << "tick " << tick_index;
  ASSERT_EQ(a.energy_low, b.energy_low) << "tick " << tick_index;
  ASSERT_EQ(a.jam_trigger, b.jam_trigger) << "tick " << tick_index;
  ASSERT_EQ(a.vita_ticks, b.vita_ticks) << "tick " << tick_index;
  ASSERT_EQ(a.tx.rf_active, b.tx.rf_active) << "tick " << tick_index;
  ASSERT_EQ(a.tx.sample_strobe, b.tx.sample_strobe) << "tick " << tick_index;
  ASSERT_EQ(a.tx.sample, b.tx.sample) << "tick " << tick_index;
}

// Program a two-stage (energy-rise then xcorr — the rise leads the
// correlator peak by the 64-tap fill) white-noise jammer so the equivalence
// run exercises the FSM window logic, the jam delay/uptime machinery and
// the TX sample path, not just the detectors.
void program_jammer(DspCore& core, std::uint32_t xcorr_threshold) {
  auto& regs = core.registers();
  program_template(regs, core::wifi_short_preamble_template());
  regs.write(Reg::kXcorrThreshold, xcorr_threshold);
  regs.write(Reg::kEnergyThreshHigh, core::energy_threshold_q88_from_db(6.0));
  regs.write(Reg::kEnergyThreshLow, core::energy_threshold_q88_from_db(6.0));
  regs.write(Reg::kEnergyFloor, 1000);
  regs.set_trigger_stages(kEventEnergyHigh, kEventXcorr, 0);
  regs.write(Reg::kTriggerWindow, 4096);
  regs.set_jammer(JamWaveform::kWhiteNoise, true, 2);
  regs.write(Reg::kJamDuration, 100);
  core.apply_registers();
}

TEST(RunBlockEquivalence, MillionSampleStreamBitIdentical) {
  // Noise floor with a short preamble burst every ~10k samples: plenty of
  // xcorr + energy events, jam triggers and TX bursts across >= 1M samples.
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);

  // Calibrate a threshold the bursts comfortably cross.
  DspCore probe;
  program_jammer(probe, 1);
  std::uint32_t peak = 0;
  {
    CrossCorrelator c;
    const auto tpl = core::wifi_short_preamble_template();
    c.set_coefficients(tpl.coef_i, tpl.coef_q);
    for (const auto s : burst) peak = std::max(peak, c.step(s).metric);
  }
  ASSERT_GT(peak, 0u);

  DspCore tick_core;
  DspCore block_core;
  program_jammer(tick_core, peak / 2);
  program_jammer(block_core, peak / 2);

  constexpr std::size_t kTotalSamples = 1'050'000;
  constexpr std::size_t kBurstEvery = 10'000;
  // Odd chunk length so run_block boundaries sweep across burst positions.
  constexpr std::size_t kChunk = 4099;

  dsp::NoiseSource noise(0.002, 77);
  std::vector<CoreOutput> block_out(kChunk * kClocksPerSample);
  std::size_t produced = 0;
  std::size_t burst_pos = 0;  // next index within an in-progress burst
  std::size_t since_burst = 0;
  std::uint64_t tick_index = 0;

  dsp::iqvec chunk;
  chunk.reserve(kChunk);
  while (produced < kTotalSamples) {
    chunk.clear();
    const std::size_t len = std::min(kChunk, kTotalSamples - produced);
    for (std::size_t k = 0; k < len; ++k) {
      if (burst_pos < burst.size()) {
        chunk.push_back(burst[burst_pos++]);
      } else if (++since_burst >= kBurstEvery) {
        since_burst = 0;
        burst_pos = 0;
        chunk.push_back(dsp::to_iq16(noise.sample()));
      } else {
        chunk.push_back(dsp::to_iq16(noise.sample()));
      }
    }
    block_core.run_block(chunk,
                         std::span(block_out).first(len * kClocksPerSample));
    for (std::size_t k = 0; k < len; ++k) {
      for (std::uint32_t c = 0; c < kClocksPerSample; ++c) {
        const CoreOutput ref =
            tick_core.tick(c == 0 ? std::optional<dsp::IQ16>(chunk[k])
                                  : std::nullopt);
        expect_outputs_equal(block_out[k * kClocksPerSample + c], ref,
                             tick_index);
        ++tick_index;
      }
      if (::testing::Test::HasFatalFailure()) return;  // don't flood on break
    }
    produced += len;
  }

  // The run must actually have jammed, or the equivalence proved nothing.
  EXPECT_GT(block_core.feedback().jam_triggers, 0u);
  EXPECT_GT(block_core.feedback().xcorr_detections, 0u);
  EXPECT_GT(block_core.feedback().energy_high_detections, 0u);

  // Feedback counters and VITA time agree in aggregate too.
  const auto& a = block_core.feedback();
  const auto& b = tick_core.feedback();
  EXPECT_EQ(a.xcorr_detections, b.xcorr_detections);
  EXPECT_EQ(a.energy_high_detections, b.energy_high_detections);
  EXPECT_EQ(a.energy_low_detections, b.energy_low_detections);
  EXPECT_EQ(a.jam_triggers, b.jam_triggers);
  EXPECT_EQ(a.last_trigger_vita, b.last_trigger_vita);
  EXPECT_EQ(a.vita_ticks, b.vita_ticks);
}

TEST(RunBlockEquivalence, MisalignedStrobePhaseFallsBackToTickCadence) {
  DspCore tick_core;
  DspCore block_core;
  program_jammer(tick_core, 1u << 10);
  program_jammer(block_core, 1u << 10);

  // Knock both cores off strobe alignment by one raw fabric clock.
  (void)tick_core.tick(dsp::IQ16{100, -100});
  (void)block_core.tick(dsp::IQ16{100, -100});

  const dsp::iqvec stream = noise_stream(2000, 0.01, 99);
  std::vector<CoreOutput> block_out(stream.size() * kClocksPerSample);
  block_core.run_block(stream, block_out);

  std::uint64_t tick_index = 0;
  for (std::size_t k = 0; k < stream.size(); ++k) {
    for (std::uint32_t c = 0; c < kClocksPerSample; ++c) {
      const CoreOutput ref =
          tick_core.tick(c == 0 ? std::optional<dsp::IQ16>(stream[k])
                                : std::nullopt);
      expect_outputs_equal(block_out[k * kClocksPerSample + c], ref,
                           tick_index);
      ++tick_index;
    }
  }
}

// Noise with a short preamble every `every` samples and, between them, a
// loud noise burst, and a correlator threshold at half the preamble's
// peak: detections, jam bursts, and energy rises with no xcorr after them
// (program_jammer's two-stage FSM times out on those).
dsp::iqvec jammed_stream(std::size_t n, std::size_t every,
                         std::uint32_t& threshold) {
  const dsp::iqvec burst = fabric_preamble(phy80211::short_preamble(), 0.5f);
  CrossCorrelator c;
  const auto tpl = core::wifi_short_preamble_template();
  c.set_coefficients(tpl.coef_i, tpl.coef_q);
  std::uint32_t peak = 0;
  for (const auto s : burst) peak = std::max(peak, c.step(s).metric);
  threshold = peak / 2;
  dsp::iqvec stream = noise_stream(n, 0.002, 31);
  const dsp::iqvec loud = noise_stream(300, 0.05, 32);
  for (std::size_t at = every / 4; at + every / 2 + burst.size() < n;
       at += every) {
    std::copy(loud.begin(), loud.end(),
              stream.begin() + static_cast<std::ptrdiff_t>(at));
    std::copy(burst.begin(), burst.end(),
              stream.begin() + static_cast<std::ptrdiff_t>(at + every / 2));
  }
  return stream;
}

TEST(RunBlockEquivalence, JammerOutOfStepFallsBackToTickCadence) {
  // A burst started on a clock that is not a sample strobe (here by
  // clocking the jammer directly) is out of step with the block loop's
  // per-sample patterns until it ends: run_block must replay the per-tick
  // cadence while it lasts, then pick the block loop up again.
  std::uint32_t threshold = 0;
  const dsp::iqvec stream = jammed_stream(30'000, 3000, threshold);
  // Offsets 3 and 7 would land where a strobe-clock trigger leaves it.
  for (const std::uint32_t offset : {0u, 1u, 2u, 4u, 5u, 6u}) {
    DspCore tick_core;
    DspCore block_core;
    program_jammer(tick_core, threshold);
    program_jammer(block_core, threshold);
    for (DspCore* core : {&tick_core, &block_core}) {
      (void)core->jammer().clock(true);
      for (std::uint32_t c = 0; c < offset; ++c) (void)core->jammer().clock(false);
    }
    ASSERT_FALSE(block_core.jammer().sample_aligned()) << "offset " << offset;
    std::uint64_t tick_index = 0;
    constexpr std::size_t kChunk = 37;
    std::vector<CoreOutput> block_out(kChunk * kClocksPerSample);
    for (std::size_t n = 0; n < stream.size(); n += kChunk) {
      const std::size_t len = std::min(kChunk, stream.size() - n);
      block_core.run_block(std::span(stream).subspan(n, len),
                           std::span(block_out).first(len * kClocksPerSample));
      for (std::size_t k = 0; k < len; ++k) {
        for (std::uint32_t c = 0; c < kClocksPerSample; ++c) {
          const CoreOutput ref =
              tick_core.tick(c == 0 ? std::optional<dsp::IQ16>(stream[n + k])
                                    : std::nullopt);
          expect_outputs_equal(block_out[k * kClocksPerSample + c], ref,
                               tick_index);
          ++tick_index;
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
      ASSERT_TRUE(block_core.jammer() == tick_core.jammer())
          << "offset " << offset << ", sample " << n + len;
    }
    EXPECT_GT(block_core.feedback().jam_triggers, 0u);
  }
}

// Every ring record, flattened to integers.
class RingLog final : public obs::FabricSink {
 public:
  void on_event(obs::EventKind kind, std::uint64_t vita,
                std::uint64_t value) override {
    records.push_back({0, static_cast<std::uint64_t>(kind), vita, value});
  }
  void on_strobe(const obs::FabricSignals& s) override {
    records.push_back({1, s.vita_ticks, pack(s.rx), s.xcorr_metric,
                       s.energy_sum, s.fsm_stage, s.xcorr_trigger,
                       s.energy_high, s.energy_low, s.jam_trigger,
                       s.rf_active, pack(s.tx)});
  }
  std::vector<std::vector<std::uint64_t>> records;

 private:
  static std::uint64_t pack(dsp::IQ16 s) {
    return static_cast<std::uint16_t>(s.i) |
           (std::uint64_t{static_cast<std::uint16_t>(s.q)} << 16);
  }
};

// Ring records of the traced block loop and of the per-tick path on the
// same stream, for program_jammer's FSM with a `window`-clock window.
void expect_traced_rings_match(std::span<const dsp::IQ16> stream,
                               std::uint32_t threshold, std::uint32_t window) {
  DspCore tick_core;
  DspCore block_core;
  for (DspCore* core : {&tick_core, &block_core}) {
    program_jammer(*core, threshold);
    core->registers().write(Reg::kTriggerWindow, window);
    core->apply_registers();
  }
  obs::EventRing tick_ring(obs::RingConfig{.strobe_sample_period = 7});
  obs::EventRing block_ring(obs::RingConfig{.strobe_sample_period = 7});
  RingLog tick_log;
  RingLog block_log;
  tick_ring.set_consumer(&tick_log, true);
  block_ring.set_consumer(&block_log, true);
  tick_core.set_ring(&tick_ring);
  block_core.set_ring(&block_ring);

  constexpr std::size_t kChunk = 4099;
  for (std::size_t n = 0; n < stream.size(); n += kChunk) {
    const std::size_t len = std::min(kChunk, stream.size() - n);
    (void)block_core.process(stream.subspan(n, len));
    for (std::size_t k = n; k < n + len; ++k) {
      (void)tick_core.tick(stream[k]);
      for (std::uint32_t c = 1; c < kClocksPerSample; ++c)
        (void)tick_core.tick(std::nullopt);
    }
    tick_ring.drain();
  }
  tick_core.set_ring(nullptr);
  block_core.set_ring(nullptr);

  const std::string where = "window " + std::to_string(window);
  ASSERT_EQ(tick_log.records.size(), block_log.records.size()) << where;
  for (std::size_t k = 0; k < tick_log.records.size(); ++k)
    ASSERT_EQ(tick_log.records[k], block_log.records[k])
        << where << ", record " << k;
  // The trace must hold what it claims to compare: FSM timeouts back to
  // stage 0 beyond the fires, and jam bursts that end.
  std::size_t stage_zero = 0;
  std::size_t jam_ends = 0;
  for (const auto& r : block_log.records) {
    if (r[0] != 0) continue;
    const auto kind = static_cast<obs::EventKind>(r[1]);
    if (kind == obs::EventKind::kFsmStage && r[3] == 0) ++stage_zero;
    if (kind == obs::EventKind::kJamEnd) ++jam_ends;
  }
  EXPECT_GT(stage_zero, block_core.feedback().jam_triggers) << where;
  EXPECT_GT(jam_ends, 0u) << where;
}

TEST(RunBlockEquivalence, TracedRingRecordsMatchPerTickTrace) {
  // The traced block loop publishes per-sample state (FSM timeouts and RF
  // edges inside a sample) at the ticks the per-tick path would: same
  // records, same order, same VITA stamps. Windows of 300-303 clocks time
  // a sequence out on each tick of a sample.
  std::uint32_t threshold = 0;
  const dsp::iqvec stream = jammed_stream(40'000, 2500, threshold);
  for (std::uint32_t window = 300; window < 304; ++window)
    expect_traced_rings_match(stream, threshold, window);
}

TEST(RunBlockEquivalence, ProcessStillReturnsPerTickTrace) {
  DspCore core;
  program_jammer(core, 1u << 10);
  const dsp::iqvec stream = noise_stream(256, 0.01, 5);
  const auto trace = core.process(stream);
  ASSERT_EQ(trace.size(), stream.size() * kClocksPerSample);
  for (std::size_t k = 0; k < trace.size(); ++k) {
    EXPECT_EQ(trace[k].rx_strobe, k % kClocksPerSample == 0);
    EXPECT_EQ(trace[k].vita_ticks, k);
  }
}

}  // namespace
}  // namespace rjf::fpga
