// The custom DSP core nested inside the USRP N210 DDC chain (paper Figs. 1-2).
//
// Composes the four main functional blocks — cross-correlator, energy
// differentiator, jamming event builder (trigger FSM) and transmit
// controller — plus the smaller logic for timing (VITA time) and host
// feedback. The core is cycle-accurate: tick() advances one 100 MHz fabric
// clock, and a receive sample strobe arrives every 4th tick (25 MSPS),
// matching the paper's clock/sample-rate relationship that underlies all
// of its latency arithmetic.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/types.h"
#include "fpga/cross_correlator.h"
#include "fpga/energy_differentiator.h"
#include "fpga/jammer_controller.h"
#include "fpga/register_file.h"
#include "fpga/trigger_fsm.h"
#include "obs/event_ring.h"
#include "obs/events.h"

namespace rjf::fpga {

// Host-facing rate constants (Hz). These parameterise latency arithmetic
// and resampling on the host side; the fabric itself only knows the 4:1
// clock-to-strobe ratio (kClocksPerSample).
inline constexpr double kFabricClockHz = 100e6;   // fabric-lint: allow(float-in-datapath)
inline constexpr double kBasebandRateHz = 25e6;   // fabric-lint: allow(float-in-datapath)

struct CoreOutput {
  bool rx_strobe = false;       // this tick consumed a baseband sample
  bool xcorr_trigger = false;
  bool energy_high = false;
  bool energy_low = false;
  bool jam_trigger = false;     // FSM fired this tick
  JammerController::TxOut tx;   // TX path output
  std::uint64_t vita_ticks = 0; // fabric clock count (VITA time, GPS locked)
};

/// Where a block pass puts each fabric tick's output (DESIGN.md section 7).
/// The block loop computes every tick exactly as tick() would and hands it
/// to the sink, kClocksPerSample ticks per baseband sample in order, then
/// calls end_sample(). A tick whose outputs are all low apart from the VITA
/// stamp (no strobe, RF off: most ticks) arrives as quiet_tick(vita);
/// every other tick as tick(out). Instantiating the loop with a sink that
/// ignores both lets the compiler drop the CoreOutput altogether, so each
/// caller pays only for what it reads. A sink whose kReadsTx is false
/// never reads tx.sample, so the untraced loop does not synthesise jam
/// samples for it (their generator state is settled arithmetically). The
/// three calls run inside the realtime block loop: they must not throw
/// (checked here), and a sink tags its non-empty ones `rjf: realtime` so
/// the analyzer checks that they neither allocate nor block.
template <class S>
concept TickSink = requires(S& sink, const CoreOutput& out,
                            std::uint64_t vita) {
  { S::kReadsTx } -> std::convertible_to<bool>;
  { sink.tick(out) } noexcept;
  { sink.quiet_tick(vita) } noexcept;
  { sink.end_sample() } noexcept;
};

/// Host-visible feedback flags and counters (the "Host Feedback
/// (Synchro Flags)" path in Fig. 1).
struct HostFeedback {
  std::uint64_t xcorr_detections = 0;
  std::uint64_t energy_high_detections = 0;
  std::uint64_t energy_low_detections = 0;
  std::uint64_t jam_triggers = 0;
  std::uint64_t last_trigger_vita = 0;
  std::uint64_t vita_ticks = 0;
};

class DspCore {
 public:
  DspCore();

  /// The host-side register file. Writes take effect at the next
  /// apply_registers() (the radio layer calls this after each settings-bus
  /// transaction completes, modelling the propagation latency).
  [[nodiscard]] RegisterFile& registers() noexcept { return regs_; }
  [[nodiscard]] const RegisterFile& registers() const noexcept { return regs_; }

  /// Latch all register values into the datapath blocks.
  void apply_registers() noexcept;

  /// Advance one fabric clock. `rx` must be present exactly on strobe ticks
  /// (every 4th tick); pass std::nullopt between strobes. Thin wrapper over
  /// the strobe/idle tick bodies that run_block() drives in bulk.
  CoreOutput tick(std::optional<dsp::IQ16> rx) noexcept;

  /// Block-processing fast path: feed `rx.size()` baseband samples
  /// (kClocksPerSample fabric clocks each) and write the per-tick outputs
  /// into `out`, which must hold rx.size() * kClocksPerSample entries.
  /// Bit-identical to calling tick(sample) + (kClocksPerSample-1) idle
  /// ticks per sample — trigger edges, VITA timestamps, TX samples and
  /// feedback counters all match — but hoists the strobe-phase arithmetic,
  /// std::optional plumbing and idle-datapath calls out of the inner loop.
  void run_block(std::span<const dsp::IQ16> rx,
                 std::span<CoreOutput> out) noexcept;

  /// The same block pass with the per-tick outputs handed to `sink`
  /// instead of stored. Counters, VITA time, jammer state and ring events
  /// are those of the array form whatever the sink does with the outputs.
  template <TickSink Sink>
  void run_block(std::span<const dsp::IQ16> rx, Sink& sink) noexcept;

  /// Convenience: feed a block of baseband samples (4 ticks each) and
  /// collect the per-tick outputs. Keeps full cycle accuracy.
  std::vector<CoreOutput> process(std::span<const dsp::IQ16> rx);

  [[nodiscard]] const HostFeedback& feedback() const noexcept { return feedback_; }
  [[nodiscard]] JammerController& jammer() noexcept { return jammer_; }
  [[nodiscard]] const CrossCorrelator& correlator() const noexcept {
    return correlator_;
  }

  /// Skip `samples` baseband sample periods of idle air (network-sim
  /// optimisation): VITA time and the jammer's delay/uptime countdowns
  /// advance exactly; the detector pipelines are flushed, which is
  /// equivalent to them having refilled with idle-channel samples.
  void fast_forward(std::uint64_t samples) noexcept;

  /// Full reset (reprogramming the FPGA). Register contents survive.
  void reset() noexcept;

  /// Attach the telemetry event ring (nullptr detaches). Producers write
  /// fixed-size records into the ring on trigger edges, FSM transitions,
  /// jam bursts and sampled strobes; outputs stay bit-identical to an
  /// untraced run because the traced run_block() instantiation keeps the
  /// same straight-line compute path and only appends records behind the
  /// existing rare-event branches (the overhead contract; see DESIGN.md
  /// "Observability"). Inline-drain rings are drained at block boundaries.
  void set_ring(obs::EventRing* ring) noexcept { ring_ = ring; }
  [[nodiscard]] obs::EventRing* ring() const noexcept { return ring_; }

 private:
  /// Strobe-tick body: detectors + edge logic + FSM/jammer clocks.
  CoreOutput strobe_tick(dsp::IQ16 sample) noexcept;
  /// Idle-tick body: detectors hold; FSM window and jammer timers advance.
  CoreOutput idle_tick() noexcept;
  /// Shared tail of every tick: FSM, jam bookkeeping, TX path, VITA time.
  void finish_tick(CoreOutput& out) noexcept;
  /// Publish this tick's events/snapshot to the ring (ring_ != nullptr).
  /// Kept out of line and cold so the no-ring tick path stays inlinable.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void emit_tick(const CoreOutput& out) noexcept;
  /// The block loop, compiled twice per sink: the kTraced instantiation
  /// interleaves ring emission behind the existing rare-event branches, the
  /// plain one is the untouched fast path. Both run the same datapath
  /// computations in the same order, which is what makes traced-vs-plain
  /// bit-identity hold by construction.
  template <bool kTraced, TickSink Sink>
  void run_block_body(std::span<const dsp::IQ16> rx, Sink& sink) noexcept;

  RegisterFile regs_;
  CrossCorrelator correlator_;
  EnergyDifferentiator energy_;
  TriggerFsm fsm_;
  JammerController jammer_;
  HostFeedback feedback_;
  std::uint64_t vita_ticks_ = 0;  // 64-bit VITA clock count (GPS locked)
  // 100 MHz clock / 25 MSPS strobe divider; the 2-bit wrap is the mod-4.
  static_assert(kClocksPerSample == 4);
  hw::UInt<2> strobe_phase_;
  // Latched detector outputs: detectors update on sample strobes, but the
  // FSM samples them every clock, so levels are held between strobes.
  DetectorEvents held_events_;
  bool prev_xcorr_ = false;
  bool prev_high_ = false;
  bool prev_low_ = false;

  // Telemetry tap. The probe_* mirrors are only written while a ring is
  // attached; they exist because the strobe-tick locals (metric, energy
  // sum) are consumed before the FSM/TX state the snapshot also needs.
  obs::EventRing* ring_ = nullptr;
  std::uint32_t probe_xcorr_metric_ = 0;
  std::uint64_t probe_energy_sum_ = 0;
  dsp::IQ16 probe_rx_{};
  dsp::IQ16 probe_tx_{};
  bool prev_rf_ = false;
  int prev_stage_ = 0;
};

// rjf: realtime
template <TickSink Sink>
void DspCore::run_block(std::span<const dsp::IQ16> rx, Sink& sink) noexcept {
  if (strobe_phase_ != 0 || !jammer_.sample_aligned()) {
    // Misaligned entry (a caller interleaved raw tick()s, or skipped air
    // time from mid-sample and left a burst out of step with the strobe):
    // replay the exact per-tick cadence.
    for (const dsp::IQ16 sample : rx) {
      sink.tick(tick(sample));
      for (std::uint32_t c = 1; c < kClocksPerSample; ++c)
        sink.tick(tick(std::nullopt));
      sink.end_sample();
    }
    // Inline drain is the single-thread consumer seam: it runs at the block
    // boundary, outside the wait-free producer window.
    if (ring_ != nullptr) ring_->drain_if_inline();  // rjf-analyze: allow(realtime.call)
    return;
  }

  if (ring_ != nullptr) {
    run_block_body<true>(rx, sink);
    ring_->drain_if_inline();  // rjf-analyze: allow(realtime.call)
  } else {
    run_block_body<false>(rx, sink);
  }
}

template <bool kTraced, TickSink Sink>
void DspCore::run_block_body(std::span<const dsp::IQ16> rx,
                             Sink& sink) noexcept {
  // Jam samples that nothing reads are owed, not synthesised, and settled
  // below, so the jammer leaves this call exactly as the per-tick model.
  constexpr bool kGenerateTx = kTraced || Sink::kReadsTx;
  for (const dsp::IQ16 sample : rx) {
    const std::uint64_t vita = vita_ticks_;
    // --- Strobe clock: detectors + edge logic (same body as strobe_tick,
    // with the event latch kept in a local so held_events_ stays clear).
    const auto xc = correlator_.step(sample);
    const auto en = energy_.step(sample);
    jammer_.record_rx(sample);

    DetectorEvents ev;
    ev.xcorr = xc.trigger && !prev_xcorr_;
    ev.energy_high = en.trigger_high && !prev_high_;
    ev.energy_low = en.trigger_low && !prev_low_;
    prev_xcorr_ = xc.trigger;
    prev_high_ = en.trigger_high;
    prev_low_ = en.trigger_low;

    if (ev.xcorr) ++feedback_.xcorr_detections;
    if (ev.energy_high) ++feedback_.energy_high_detections;
    if (ev.energy_low) ++feedback_.energy_low_detections;

    // When the FSM is disengaged and no event is asserted, clock() cannot
    // change state or fire, so the call is skipped outright.
    bool jam = false;
    if (fsm_.engaged() || ev.any()) jam = fsm_.clock(ev);
    if (jam) {
      ++feedback_.jam_triggers;
      feedback_.last_trigger_vita = vita;
    }
    // The jammer's whole sample period at once: the trigger can only land
    // on this strobe clock, which keeps the jammer in step with the strobe
    // (DESIGN.md section 7). An idle jammer ignores a false trigger.
    const JammerController::SampleTx tx =
        (jam || jammer_.busy()) ? jammer_.clock_sample<kGenerateTx>(jam)
                                : JammerController::SampleTx{};
    const bool rf_on = tx.rf_clocks > 0;  // the strobe clock issues a sample

    if constexpr (kTraced) {
      using obs::EventKind;
      if (ev.xcorr) ring_->push_event(EventKind::kXcorrTrigger, vita, xc.metric);
      if (ev.energy_high)
        ring_->push_event(EventKind::kEnergyRise, vita, en.energy_sum);
      if (ev.energy_low)
        ring_->push_event(EventKind::kEnergyFall, vita, en.energy_sum);
      const int stage = fsm_.stage();
      if (stage != prev_stage_) {
        prev_stage_ = stage;
        if (ring_->want_spans())
          ring_->push_event(EventKind::kFsmStage, vita,
                            hw::UInt<8>(stage).u64());
      }
      if (jam) ring_->push_event(EventKind::kJamTrigger, vita, 0);
      if (rf_on != prev_rf_) {
        ring_->push_event(rf_on ? EventKind::kJamStart : EventKind::kJamEnd,
                          vita, 0);
        prev_rf_ = rf_on;
      }
      if (rf_on) probe_tx_ = tx.sample;
      const bool interesting =
          ev.xcorr || ev.energy_high || ev.energy_low || jam;
      if (ring_->strobe_gate(interesting)) {
        obs::FabricSignals snap;
        snap.vita_ticks = vita;
        snap.rx = sample;
        snap.xcorr_metric = xc.metric;
        snap.energy_sum = en.energy_sum;
        snap.fsm_stage = hw::UInt<8>(stage).value();
        snap.xcorr_trigger = ev.xcorr;
        snap.energy_high = ev.energy_high;
        snap.energy_low = ev.energy_low;
        snap.jam_trigger = jam;
        snap.rf_active = rf_on;
        snap.tx = probe_tx_;
        ring_->push_strobe(snap);
      }
      // Keep the probe mirrors coherent for a later per-tick entry.
      probe_xcorr_metric_ = xc.metric;
      probe_energy_sum_ = en.energy_sum;
      probe_rx_ = sample;
    }
    sink.tick(CoreOutput{.rx_strobe = true,
                         .xcorr_trigger = ev.xcorr,
                         .energy_high = ev.energy_high,
                         .energy_low = ev.energy_low,
                         .jam_trigger = jam,
                         .tx = {.rf_active = rf_on,
                                .sample = tx.sample,
                                .sample_strobe = rf_on},
                         .vita_ticks = vita});

    // --- Idle clocks: detector outputs hold low, so the FSM can time out
    // but never fire, and RF stays as the jammer's period left it.
    const std::uint64_t rearm =
        fsm_.engaged() ? fsm_.idle_clocks(kClocksPerSample - 1) : 0;
    for (std::uint32_t c = 1; c < kClocksPerSample; ++c) {
      const bool rf = c < tx.rf_clocks;
      if constexpr (kTraced) {
        using obs::EventKind;
        if (c == rearm) {
          prev_stage_ = 0;
          if (ring_->want_spans())
            ring_->push_event(EventKind::kFsmStage, vita + c, 0);
        }
        if (rf != prev_rf_) {
          ring_->push_event(rf ? EventKind::kJamStart : EventKind::kJamEnd,
                            vita + c, 0);
          prev_rf_ = rf;
        }
      }
      if (rf) {
        sink.tick(CoreOutput{.tx = {.rf_active = true}, .vita_ticks = vita + c});
      } else {
        sink.quiet_tick(vita + c);
      }
    }
    sink.end_sample();
    vita_ticks_ = vita + kClocksPerSample;
  }
  if constexpr (!kGenerateTx) jammer_.settle_tx();
  feedback_.vita_ticks = vita_ticks_;
}

}  // namespace rjf::fpga
