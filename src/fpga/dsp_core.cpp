#include "fpga/dsp_core.h"

namespace rjf::fpga {

DspCore::DspCore() = default;

void DspCore::apply_registers() noexcept {
  correlator_.load_from_registers(regs_);
  energy_.load_from_registers(regs_);
  fsm_.load_from_registers(regs_);
  jammer_.load_from_registers(regs_);
}

void DspCore::finish_tick(CoreOutput& out) noexcept {
  out.jam_trigger = fsm_.clock(held_events_);
  if (out.jam_trigger) {
    ++feedback_.jam_triggers;
    feedback_.last_trigger_vita = vita_ticks_;
  }
  // Event pulses are single-strobe; clear after the FSM consumed them.
  held_events_ = DetectorEvents{};

  out.tx = jammer_.clock(out.jam_trigger);

  if (ring_ != nullptr) [[unlikely]]
    emit_tick(out);

  ++vita_ticks_;
  feedback_.vita_ticks = vita_ticks_;
}

// rjf: realtime
void DspCore::emit_tick(const CoreOutput& out) noexcept {
  const std::uint64_t vita = vita_ticks_;
  using obs::EventKind;
  if (out.xcorr_trigger)
    ring_->push_event(EventKind::kXcorrTrigger, vita, probe_xcorr_metric_);
  if (out.energy_high)
    ring_->push_event(EventKind::kEnergyRise, vita, probe_energy_sum_);
  if (out.energy_low)
    ring_->push_event(EventKind::kEnergyFall, vita, probe_energy_sum_);
  const int stage = fsm_.stage();
  if (stage != prev_stage_) {
    prev_stage_ = stage;
    if (ring_->want_spans())
      ring_->push_event(EventKind::kFsmStage, vita, hw::UInt<8>(stage).u64());
  }
  if (out.jam_trigger) ring_->push_event(EventKind::kJamTrigger, vita, 0);
  if (out.tx.rf_active != prev_rf_) {
    ring_->push_event(out.tx.rf_active ? EventKind::kJamStart
                                       : EventKind::kJamEnd,
                      vita, 0);
    prev_rf_ = out.tx.rf_active;
  }
  if (out.tx.sample_strobe) probe_tx_ = out.tx.sample;

  if (out.rx_strobe) {
    const bool interesting = out.xcorr_trigger || out.energy_high ||
                             out.energy_low || out.jam_trigger;
    if (ring_->strobe_gate(interesting)) {
      obs::FabricSignals s;
      s.vita_ticks = vita;
      s.rx = probe_rx_;
      s.xcorr_metric = probe_xcorr_metric_;
      s.energy_sum = probe_energy_sum_;
      s.fsm_stage = hw::UInt<8>(stage).value();
      s.xcorr_trigger = out.xcorr_trigger;
      s.energy_high = out.energy_high;
      s.energy_low = out.energy_low;
      s.jam_trigger = out.jam_trigger;
      s.rf_active = out.tx.rf_active;
      s.tx = probe_tx_;
      ring_->push_strobe(s);
    }
  }
}

CoreOutput DspCore::strobe_tick(dsp::IQ16 sample) noexcept {
  CoreOutput out;
  out.vita_ticks = vita_ticks_;
  out.rx_strobe = true;

  const auto xc = correlator_.step(sample);
  const auto en = energy_.step(sample);
  jammer_.record_rx(sample);

  if (ring_ != nullptr) [[unlikely]] {
    probe_xcorr_metric_ = xc.metric;
    probe_energy_sum_ = en.energy_sum;
    probe_rx_ = sample;
  }

  // Edge-detect so one packet produces one event per detector, not one
  // per sample while the metric stays above threshold.
  held_events_.xcorr = xc.trigger && !prev_xcorr_;
  held_events_.energy_high = en.trigger_high && !prev_high_;
  held_events_.energy_low = en.trigger_low && !prev_low_;
  prev_xcorr_ = xc.trigger;
  prev_high_ = en.trigger_high;
  prev_low_ = en.trigger_low;

  if (held_events_.xcorr) ++feedback_.xcorr_detections;
  if (held_events_.energy_high) ++feedback_.energy_high_detections;
  if (held_events_.energy_low) ++feedback_.energy_low_detections;

  out.xcorr_trigger = held_events_.xcorr;
  out.energy_high = held_events_.energy_high;
  out.energy_low = held_events_.energy_low;

  finish_tick(out);
  return out;
}

CoreOutput DspCore::idle_tick() noexcept {
  CoreOutput out;
  out.vita_ticks = vita_ticks_;
  // held_events_ were cleared when the previous tick's FSM consumed them,
  // so detector outputs read false between strobes.
  finish_tick(out);
  return out;
}

// rjf: realtime
CoreOutput DspCore::tick(std::optional<dsp::IQ16> rx) noexcept {
  const bool strobe = (strobe_phase_ == 0);
  strobe_phase_ = hw::wrap_inc(strobe_phase_);  // 2-bit wrap == mod 4
  return strobe ? strobe_tick(rx.value_or(dsp::IQ16{})) : idle_tick();
}

namespace {

// The array form's sink: one CoreOutput per fabric tick, in order.
class CoreOutputSink {
 public:
  static constexpr bool kReadsTx = true;

  explicit CoreOutputSink(CoreOutput* out) noexcept : next_(out) {}
  // Field by field on purpose: a whole-struct copy makes the compiler
  // assemble the tick in a stack temporary with narrow stores and reload
  // it with wide loads, which defeats store forwarding.
  // rjf: realtime
  void tick(const CoreOutput& out) noexcept {
    CoreOutput& slot = *next_++;
    slot.rx_strobe = out.rx_strobe;
    slot.xcorr_trigger = out.xcorr_trigger;
    slot.energy_high = out.energy_high;
    slot.energy_low = out.energy_low;
    slot.jam_trigger = out.jam_trigger;
    slot.tx.rf_active = out.tx.rf_active;
    slot.tx.sample = out.tx.sample;
    slot.tx.sample_strobe = out.tx.sample_strobe;
    slot.vita_ticks = out.vita_ticks;
  }
  // rjf: realtime
  void quiet_tick(std::uint64_t vita) noexcept {
    CoreOutput& slot = *next_++;
    slot = CoreOutput{};
    slot.vita_ticks = vita;
  }
  void end_sample() noexcept {}

 private:
  CoreOutput* next_;
};

}  // namespace

// rjf: realtime
void DspCore::run_block(std::span<const dsp::IQ16> rx,
                        std::span<CoreOutput> out) noexcept {
  if (out.size() < rx.size() * kClocksPerSample) {
    rx = rx.first(out.size() / kClocksPerSample);
  }
  CoreOutputSink sink(out.data());
  run_block(rx, sink);
}

std::vector<CoreOutput> DspCore::process(std::span<const dsp::IQ16> rx) {
  std::vector<CoreOutput> trace(rx.size() * kClocksPerSample);
  run_block(rx, trace);
  return trace;
}

void DspCore::fast_forward(std::uint64_t samples) noexcept {
  jammer_.fast_forward(samples);
  correlator_.reset();
  energy_.reset();
  fsm_.reset();
  held_events_ = DetectorEvents{};
  prev_xcorr_ = prev_high_ = prev_low_ = false;
  vita_ticks_ += samples * kClocksPerSample;
  feedback_.vita_ticks = vita_ticks_;
  strobe_phase_ = hw::UInt<2>();
  if (ring_ != nullptr) {
    // A jam burst whose edge fell inside the skipped air time still needs
    // that edge; the exact tick is unobservable here, so stamp it at the
    // end of the gap (duty-cycle error bounded by the skip length).
    if (prev_rf_ != jammer_.rf_active()) {
      prev_rf_ = jammer_.rf_active();
      ring_->push_event(prev_rf_ ? obs::EventKind::kJamStart
                                 : obs::EventKind::kJamEnd,
                        vita_ticks_, 0);
    }
    prev_stage_ = fsm_.stage();
  }
}

void DspCore::reset() noexcept {
  correlator_.reset();
  energy_.reset();
  fsm_.reset();
  jammer_.reset();
  feedback_ = HostFeedback{};
  vita_ticks_ = 0;
  strobe_phase_ = hw::UInt<2>();
  held_events_ = DetectorEvents{};
  prev_xcorr_ = prev_high_ = prev_low_ = false;
  probe_xcorr_metric_ = 0;
  probe_energy_sum_ = 0;
  probe_rx_ = dsp::IQ16{};
  probe_tx_ = dsp::IQ16{};
  prev_rf_ = false;
  prev_stage_ = 0;
}

}  // namespace rjf::fpga
