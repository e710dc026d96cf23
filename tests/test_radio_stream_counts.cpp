// The two stream outputs against each other and against the per-tick
// trace: the counts-only entry (UsrpN210::detect, ReactiveJammer::
// observe_counts) must leave every counter, VITA stamp and ring record
// exactly as the full-duplex stream() does, and the full-duplex TX
// waveform and burst list built per sample must equal a rescan of
// DspCore::process()'s per-tick outputs.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/detection_experiment.h"
#include "core/reactive_jammer.h"
#include "core/scenario.h"
#include "dsp/noise.h"
#include "obs/event_ring.h"
#include "radio/fault_hooks.h"
#include "radio/usrp_n210.h"

namespace rjf::radio {
namespace {

// Every record the ring delivers, flattened to integers. kStreamWall
// carries wall-clock nanoseconds, which no two runs share, so its value is
// dropped; its position and VITA stamp still count.
class RingLog final : public obs::FabricSink {
 public:
  void on_event(obs::EventKind kind, std::uint64_t vita,
                std::uint64_t value) override {
    if (kind == obs::EventKind::kStreamWall) value = 0;
    records.push_back({0, static_cast<std::uint64_t>(kind), vita, value});
  }
  void on_strobe(const obs::FabricSignals& s) override {
    records.push_back(
        {1, s.vita_ticks, pack(s.rx), s.xcorr_metric, s.energy_sum,
         s.fsm_stage, s.xcorr_trigger, s.energy_high, s.energy_low,
         s.jam_trigger, s.rf_active, pack(s.tx)});
  }
  std::vector<std::vector<std::uint64_t>> records;

 private:
  static std::uint64_t pack(dsp::IQ16 s) {
    return static_cast<std::uint16_t>(s.i) |
           (std::uint64_t{static_cast<std::uint16_t>(s.q)} << 16);
  }
};

// One jammer with an optional inline-drained ring feeding a RingLog.
struct Rig {
  Rig(const core::JammerConfig& config, bool with_ring) : jammer(config) {
    if (with_ring) {
      ring.set_consumer(&log, true);
      jammer.radio().attach_ring(&ring);
    }
  }
  ~Rig() { jammer.radio().attach_ring(nullptr); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  core::ReactiveJammer jammer;
  obs::EventRing ring;
  RingLog log;
};

// `full` streams with observe(), `counts` with observe_counts().
struct RigPair {
  RigPair(const core::JammerConfig& config, bool with_ring)
      : full(config, with_ring), counts(config, with_ring) {}

  void stream(std::span<const dsp::cfloat> rx, const std::string& where) {
    const UsrpN210::StreamResult a = full.jammer.observe(rx);
    const UsrpN210::StreamCounts b = counts.jammer.observe_counts(rx);
    EXPECT_EQ(a.jam_triggers, b.jam_triggers) << where;
    EXPECT_EQ(a.xcorr_detections, b.xcorr_detections) << where;
    EXPECT_EQ(a.energy_high_detections, b.energy_high_detections) << where;
    EXPECT_EQ(a.energy_low_detections, b.energy_low_detections) << where;
    EXPECT_EQ(a.last_trigger_vita, b.last_trigger_vita) << where;
    EXPECT_EQ(a.overflow_gaps, b.overflow_gaps) << where;
    EXPECT_EQ(a.samples_lost, b.samples_lost) << where;
    EXPECT_EQ(a.adc_clipped, b.adc_clipped) << where;
    expect_same_state(where);
    jam_triggers += a.jam_triggers;
    detections += a.xcorr_detections + a.energy_high_detections;
    samples_lost += a.samples_lost;
  }

  void expect_same_state(const std::string& where) {
    const fpga::HostFeedback& fa = full.jammer.feedback();
    const fpga::HostFeedback& fb = counts.jammer.feedback();
    EXPECT_EQ(fa.xcorr_detections, fb.xcorr_detections) << where;
    EXPECT_EQ(fa.energy_high_detections, fb.energy_high_detections) << where;
    EXPECT_EQ(fa.energy_low_detections, fb.energy_low_detections) << where;
    EXPECT_EQ(fa.jam_triggers, fb.jam_triggers) << where;
    EXPECT_EQ(fa.last_trigger_vita, fb.last_trigger_vita) << where;
    EXPECT_EQ(fa.vita_ticks, fb.vita_ticks) << where;
    EXPECT_EQ(full.jammer.radio().rx_cursor(),
              counts.jammer.radio().rx_cursor())
        << where;
    ASSERT_EQ(full.log.records.size(), counts.log.records.size()) << where;
    for (std::size_t k = 0; k < full.log.records.size(); ++k)
      ASSERT_EQ(full.log.records[k], counts.log.records[k])
          << where << ", ring record " << k;
  }

  void reset() {
    full.jammer.reset_detection_state();
    counts.jammer.reset_detection_state();
  }

  Rig full;
  Rig counts;
  std::uint64_t jam_triggers = 0;
  std::uint64_t detections = 0;
  std::uint64_t samples_lost = 0;
};

// A short-burst personality for `target`, so captures see whole bursts
// start and end; `variant` also exercises the sequenced trigger and the
// replay waveform with a surgical delay.
core::JammerConfig personality(const core::ProtocolTarget& target,
                               int variant) {
  core::JammerConfig config = core::target_reactive_preset(target, 4e-6);
  if (variant == 1) {
    config.detection = core::DetectionMode::kXcorrThenEnergy;
    config.energy_high_db = 6.0;
    config.waveform = fpga::JamWaveform::kReplay;
    config.jam_delay_samples = 20;
  }
  return config;
}

core::DetectionTrialPlan plan_for(const core::ProtocolTarget& target,
                                  double snr_db) {
  core::DetectionRunConfig config;
  config.snr_db = snr_db;
  config.tx_rate_hz = target.native_rate_hz;
  config.seed = 0x5C0;
  return core::prepare_detection_trials(target_frame(target, 0, 40, 0xA5, 0x5D),
                                        core::DetectorTap::kXcorr, config);
}

// Runs `trials` detection captures of each target at several SNRs through
// both entries; `prepare` runs before each capture on both jammers.
template <class Prepare>
void run_captures(RigPair& pair, const char* target_name, bool with_ring,
                  std::size_t trials, Prepare&& prepare) {
  const core::ProtocolTarget& target = core::target_or_throw(target_name);
  dsp::cvec capture;
  for (const double snr : {-6.0, 0.0, 6.0}) {
    const core::DetectionTrialPlan plan = plan_for(target, snr);
    for (std::size_t t = 0; t < trials; ++t) {
      core::synthesize_trial_capture(plan, t, capture);
      prepare(t);
      pair.stream(capture, std::string(target_name) + " snr " +
                               std::to_string(snr) + " trial " +
                               std::to_string(t) +
                               (with_ring ? " ring" : " no ring"));
    }
  }
}

TEST(StreamCounts, MatchesFullDuplexOnOfdmAndDsssCaptures) {
  for (const char* name : {"wifi_ofdm", "wifi_dsss"}) {
    for (const int variant : {0, 1}) {
      for (const bool with_ring : {false, true}) {
        RigPair pair(personality(core::target_or_throw(name), variant),
                     with_ring);
        run_captures(pair, name, with_ring, 12, [&](std::size_t) {
          pair.reset();
        });
        // The captures must actually detect and jam, or the identity
        // would hold trivially.
        EXPECT_GT(pair.detections, 0u) << name << " variant " << variant;
        EXPECT_GT(pair.jam_triggers, 0u) << name << " variant " << variant;
        if (with_ring) {
          EXPECT_GT(pair.full.log.records.size(), 100u) << name;
        }
      }
    }
  }
}

TEST(StreamCounts, MatchesFullDuplexAcrossMidBlockReconfigure) {
  const core::ProtocolTarget& ofdm = core::target_or_throw("wifi_ofdm");
  for (const bool with_ring : {false, true}) {
    RigPair pair(personality(ofdm, 0), with_ring);
    // Every other capture queues a personality switch through the
    // settings bus without waiting for it: the writes land one after
    // another inside the next capture's stream, splitting its blocks.
    run_captures(pair, "wifi_ofdm", with_ring, 8, [&](std::size_t t) {
      if (t % 2 == 1) return;
      const core::JammerConfig next = personality(ofdm, t % 4 == 0 ? 1 : 0);
      pair.full.jammer.reconfigure(next);
      pair.counts.jammer.reconfigure(next);
      EXPECT_FALSE(pair.full.jammer.radio().settings_bus().idle());
    });
    EXPECT_TRUE(pair.full.jammer.radio().settings_bus().idle());
    EXPECT_GT(pair.jam_triggers, 0u);
  }
}

// Overflow gaps at fixed absolute stream positions.
struct FixedGapHook final : RxFaultHook {
  std::vector<OverflowGap> gaps;
  void mutate_rx(std::span<dsp::cfloat>, std::uint64_t) override {}
  void overflow_gaps(std::uint64_t start, std::uint64_t length,
                     std::vector<OverflowGap>& out) const override {
    for (const OverflowGap& g : gaps)
      if (g.start_sample < start + length && g.start_sample + g.length > start)
        out.push_back(g);
  }
};

TEST(StreamCounts, MatchesFullDuplexWithOverflowGaps) {
  const core::ProtocolTarget& dsss = core::target_or_throw("wifi_dsss");
  for (const bool with_ring : {false, true}) {
    RigPair pair(personality(dsss, 0), with_ring);
    // Gaps every 7000 samples, some straddling capture boundaries; the
    // recovery policy's detector reset then runs on both jammers alike.
    FixedGapHook hook;
    for (std::uint64_t at = 3000; at < 4'000'000; at += 7000)
      hook.gaps.push_back(OverflowGap{at, 150 + at % 900});
    pair.full.jammer.attach_fault_hooks(&hook, nullptr);
    pair.counts.jammer.attach_fault_hooks(&hook, nullptr);
    run_captures(pair, "wifi_dsss", with_ring, 6, [](std::size_t) {});
    EXPECT_GT(pair.samples_lost, 0u);
    EXPECT_GT(pair.jam_triggers, 0u);
    pair.full.jammer.attach_fault_hooks(nullptr, nullptr);
    pair.counts.jammer.attach_fault_hooks(nullptr, nullptr);
  }
}

TEST(StreamCounts, MatchesFullDuplexFromMisalignedStrobePhase) {
  const core::ProtocolTarget& ofdm = core::target_or_throw("wifi_ofdm");
  for (const bool with_ring : {false, true}) {
    RigPair pair(personality(ofdm, 1), with_ring);
    // 1-3 raw fabric ticks before each stream leave the strobe divider
    // mid-sample, so run_block() takes its per-tick cadence.
    run_captures(pair, "wifi_ofdm", with_ring, 6, [&](std::size_t t) {
      for (std::size_t k = 0; k < 1 + t % 3; ++k) {
        const dsp::IQ16 raw{static_cast<std::int16_t>(100 * k), -300};
        (void)pair.full.jammer.radio().core().tick(raw);
        (void)pair.counts.jammer.radio().core().tick(raw);
      }
    });
    EXPECT_GT(pair.detections, 0u);
  }
}

// The counts entry owes the jam samples it does not synthesise and settles
// them arithmetically. Afterwards the jammer must stand exactly where
// full-duplex streaming leaves it, down to the noise LFSR and the replay
// and host-stream cursors: its state compares equal, and a following
// full-duplex capture's TX is byte-identical to a twin's that streamed
// full-duplex throughout.
TEST(StreamCounts, LeavesJammerWhereFullDuplexDoes) {
  const core::ProtocolTarget& ofdm = core::target_or_throw("wifi_ofdm");
  struct Case {
    std::string name;
    core::JammerConfig config;
    bool reset_between = false;  // reset_detection_state() before captures
    bool two_frames = false;     // two frames per stream: a trigger lands
                                 // while the last burst's samples are owed
  };
  const core::JammerConfig noise = personality(ofdm, 0);  // 100-sample WGN
  const core::JammerConfig replay = personality(ofdm, 1);  // delay 20
  core::JammerConfig host = noise;
  host.waveform = fpga::JamWaveform::kHostStream;
  core::JammerConfig one_sample = noise;
  one_sample.jam_uptime_samples = 1;
  core::JammerConfig long_burst = noise;
  long_burst.jam_uptime_samples = 100'000;  // longer than a capture
  const std::vector<Case> cases = {
      {"white noise", noise},
      {"replay, surgical delay", replay},
      {"host stream", host},
      {"uptime 1 sample", one_sample},
      {"uptime past the capture", long_burst},
      {"white noise, reset between captures", noise, true},
      {"host stream, reset between captures", host, true},
      {"replay, two frames per stream", replay, false, true},
      {"host stream, two frames per stream", host, false, true},
  };
  std::vector<dsp::IQ16> host_wave;
  for (std::int16_t k = 0; k < 37; ++k)
    host_wave.push_back(dsp::IQ16{static_cast<std::int16_t>(50 * k),
                                  static_cast<std::int16_t>(-30 * k)});

  const core::DetectionTrialPlan plan = plan_for(ofdm, 6.0);
  for (const Case& c : cases) {
    RigPair pair(c.config, false);
    for (Rig* rig : {&pair.full, &pair.counts})
      rig->jammer.radio().core().jammer().set_host_waveform(host_wave);
    dsp::cvec capture;
    dsp::cvec second;
    std::uint64_t max_triggers = 0;
    bool busy_at_end = false;
    for (std::size_t t = 0; t < 16; ++t) {
      const std::string where = c.name + ", capture " + std::to_string(t);
      core::synthesize_trial_capture(plan, t, capture);
      if (c.two_frames) {
        core::synthesize_trial_capture(plan, t + 100, second);
        capture.insert(capture.end(), second.begin(), second.end());
      }
      if (c.reset_between) pair.reset();
      if (t % 4 == 3) {
        const UsrpN210::StreamResult a = pair.full.jammer.observe(capture);
        const UsrpN210::StreamResult b = pair.counts.jammer.observe(capture);
        ASSERT_EQ(a.tx.size(), b.tx.size()) << where;
        EXPECT_EQ(std::memcmp(a.tx.data(), b.tx.data(),
                              a.tx.size() * sizeof(dsp::cfloat)),
                  0)
            << where;
      } else {
        const std::uint64_t before = pair.jam_triggers;
        pair.stream(capture, where);
        max_triggers = std::max(max_triggers, pair.jam_triggers - before);
      }
      fpga::JammerController& a = pair.full.jammer.radio().core().jammer();
      fpga::JammerController& b = pair.counts.jammer.radio().core().jammer();
      EXPECT_EQ(a.jam_count(), b.jam_count()) << where;
      EXPECT_EQ(a.cycles_jamming(), b.cycles_jamming()) << where;
      EXPECT_EQ(a.busy(), b.busy()) << where;
      EXPECT_EQ(a.rf_active(), b.rf_active()) << where;
      ASSERT_TRUE(a == b) << where;
      busy_at_end = busy_at_end || a.busy();
    }
    EXPECT_GT(pair.jam_triggers, 0u) << c.name;
    if (c.two_frames) {
      EXPECT_GE(max_triggers, 2u) << c.name;
    }
    if (c.config.jam_uptime_samples > 10'000) {
      EXPECT_TRUE(busy_at_end) << c.name;
    }
  }
}

// The previous algorithm, kept here as the oracle: run the per-tick trace
// of each stretch between overflow gaps, DAC every TX strobe into its
// sample slot, and group the RF-active ticks of each sample into bursts,
// which a gap ends; the core skips a gap with fast_forward(). Then apply
// the TX gain. `gaps` are block-relative, ascending and disjoint.
UsrpN210::StreamResult rescan_trace(UsrpN210& radio,
                                    std::span<const dsp::IQ16> iq,
                                    std::span<const OverflowGap> gaps) {
  const Dac dac;
  UsrpN210::StreamResult result;
  result.tx.assign(iq.size(), dsp::cfloat{});
  bool burst_open = false;
  std::size_t n = 0;
  for (std::size_t g = 0; g <= gaps.size(); ++g) {
    const std::size_t end = g < gaps.size() ? gaps[g].start_sample : iq.size();
    const std::vector<fpga::CoreOutput> trace =
        radio.core().process(iq.subspan(n, end - n));
    for (std::size_t m = n; m < end; ++m) {
      bool rf_active = false;
      for (std::uint32_t c = 0; c < fpga::kClocksPerSample; ++c) {
        const fpga::CoreOutput& out =
            trace[(m - n) * fpga::kClocksPerSample + c];
        rf_active = rf_active || out.tx.rf_active;
        if (out.tx.sample_strobe) result.tx[m] = dac.sample(out.tx.sample);
      }
      if (rf_active && !burst_open) {
        result.bursts.push_back(JamBurst{m, 0});
        burst_open = true;
      } else if (!rf_active && burst_open) {
        burst_open = false;
      }
      if (burst_open) ++result.bursts.back().length;
    }
    if (g < gaps.size()) {
      radio.core().fast_forward(gaps[g].length);
      burst_open = false;
      n = end + gaps[g].length;
    }
  }
  radio.frontend().apply_tx(result.tx, result.tx);
  return result;
}

TEST(DuplexStream, TxAndBurstsMatchPerTickTraceRescan) {
  std::size_t gap_pass_bursts = 0;
  for (const char* name : {"wifi_ofdm", "wifi_dsss"}) {
    const core::ProtocolTarget& target = core::target_or_throw(name);
    for (const int variant : {0, 1}) {
      // Several frames back to back in one long stream: it crosses the
      // stream's chunk boundary, and bursts start and end inside it.
      const core::DetectionTrialPlan plan = plan_for(target, 6.0);
      dsp::cvec rx;
      dsp::cvec capture;
      for (std::size_t t = 0; t < 6; ++t) {
        core::synthesize_trial_capture(plan, t, capture);
        rx.insert(rx.end(), capture.begin(), capture.end());
      }
      // End mid-frame so a burst can still be open when the block ends.
      rx.resize(rx.size() - plan.tail - 200);

      // The radios are driven directly, so no recovery policy runs.
      core::ReactiveJammer streamed_jammer(personality(target, variant));
      core::ReactiveJammer traced_jammer(personality(target, variant));
      streamed_jammer.set_tx_gain(7.5);
      traced_jammer.set_tx_gain(7.5);
      UsrpN210& streamed = streamed_jammer.radio();
      UsrpN210& traced = traced_jammer.radio();
      const dsp::iqvec iq = Adc().convert(streamed.frontend().apply_rx(rx));
      // Pass 1 starts with a raw tick: the misaligned cadence. It feeds
      // the detectors zeros, so that pass sees only what is left of the
      // burst pass 0 ended in. Pass 2 loses 30 samples to an overflow gap
      // 40 samples into each of pass 0's bursts: the jammer is still on
      // the air after most of them, so the gap must split the burst.
      FixedGapHook hook;
      for (const int pass : {0, 1, 2}) {
        if (pass == 1) {
          (void)streamed.core().tick(dsp::IQ16{});
          (void)traced.core().tick(dsp::IQ16{});
        }
        if (pass == 2) streamed.attach_fault_hooks(&hook, nullptr);
        const UsrpN210::StreamResult got = streamed.stream_fabric(iq);
        const UsrpN210::StreamResult want = rescan_trace(
            traced, iq, pass == 2 ? hook.gaps : std::vector<OverflowGap>{});
        const std::string where = std::string(name) + " variant " +
                                  std::to_string(variant) + " pass " +
                                  std::to_string(pass);
        if (pass == 0) {
          ASSERT_GT(want.bursts.size(), 1u) << where;
          for (const JamBurst& b : want.bursts)
            if (b.start_sample + 70 < iq.size())
              hook.gaps.push_back(OverflowGap{b.start_sample + 40, 30});
        } else if (pass == 2) {
          gap_pass_bursts += want.bursts.size();
        }
        ASSERT_EQ(got.bursts.size(), want.bursts.size()) << where;
        for (std::size_t k = 0; k < want.bursts.size(); ++k) {
          EXPECT_EQ(got.bursts[k].start_sample, want.bursts[k].start_sample)
              << where << " burst " << k;
          EXPECT_EQ(got.bursts[k].length, want.bursts[k].length)
              << where << " burst " << k;
        }
        ASSERT_EQ(got.tx.size(), want.tx.size()) << where;
        for (std::size_t k = 0; k < want.tx.size(); ++k)
          ASSERT_EQ(got.tx[k], want.tx[k]) << where << " sample " << k;
        EXPECT_EQ(streamed.feedback().vita_ticks, traced.feedback().vita_ticks)
            << where;
      }
      streamed.attach_fault_hooks(nullptr, nullptr);
    }
  }
  // The sequenced-trigger personality may not re-arm across the gaps, but
  // the plain one must jam through them.
  EXPECT_GT(gap_pass_bursts, 0u);
}

}  // namespace
}  // namespace rjf::radio
