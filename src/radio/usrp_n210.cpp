#include "radio/usrp_n210.h"

#include <algorithm>
#include <chrono>

#include "radio/fault_hooks.h"

namespace rjf::radio {

namespace {

// Samples per run_block() call. Bounds how long the core runs between
// settings-bus checks while keeping the inner loop long enough to amortise
// the chunking overhead.
constexpr std::size_t kChunkSamples = 8192;

// Full-duplex sink: writes the TX waveform and a per-sample RF-active flag
// straight from the block loop's tick outputs, both into buffers sized by
// the caller, so the realtime loop never allocates. The burst list is
// grouped from the flags after the loop (bursts_from()).
class DuplexSink {
 public:
  static constexpr bool kReadsTx = true;

  DuplexSink(const Dac& dac, std::span<dsp::cfloat> tx,
             std::span<std::uint8_t> on_air) noexcept
      : dac_(dac), tx_(tx), on_air_(on_air) {}

  // rjf: realtime
  void tick(const fpga::CoreOutput& out) noexcept {
    rf_active_ = rf_active_ || out.tx.rf_active;
    if (out.tx.sample_strobe) tx_[n_] = dac_.sample(out.tx.sample);
  }
  void quiet_tick(std::uint64_t) noexcept {}

  // rjf: realtime
  void end_sample() noexcept {
    on_air_[n_++] = rf_active_ ? 1 : 0;
    rf_active_ = false;
  }

  // An overflow gap: the host saw none of these samples, so it cannot
  // observe RF state across them and any open burst ends here.
  void skip(std::size_t samples) noexcept {
    std::fill_n(on_air_.begin() + static_cast<std::ptrdiff_t>(n_), samples,
                std::uint8_t{0});
    n_ += samples;
  }

 private:
  const Dac& dac_;
  std::span<dsp::cfloat> tx_;
  std::span<std::uint8_t> on_air_;
  std::size_t n_ = 0;  // block-relative index of the current sample
  bool rf_active_ = false;
};

// The jam bursts: each maximal run of samples with the jammer on the air.
std::vector<JamBurst> bursts_from(std::span<const std::uint8_t> on_air) {
  std::vector<JamBurst> bursts;
  for (std::size_t n = 0; n < on_air.size(); ++n) {
    if (on_air[n] == 0) continue;
    if (n == 0 || on_air[n - 1] == 0) bursts.push_back(JamBurst{n, 0});
    ++bursts.back().length;
  }
  return bursts;
}

// Counts-only sink: the host reads nothing but the feedback counters, so
// the block loop owes the jam samples instead of synthesising them.
struct CountsSink {
  static constexpr bool kReadsTx = false;
  void tick(const fpga::CoreOutput&) noexcept {}
  void quiet_tick(std::uint64_t) noexcept {}
  void end_sample() noexcept {}
  void skip(std::size_t) noexcept {}
};

}  // namespace

UsrpN210::UsrpN210() = default;

void UsrpN210::write_register(fpga::Reg addr, std::uint32_t value) {
  bus_.write(addr, value, now_ticks());
}

void UsrpN210::write_register_now(fpga::Reg addr, std::uint32_t value) {
  core_.registers().write(addr, value);
  core_.apply_registers();
}

template <class Sink>
void UsrpN210::run_stream(std::span<const dsp::IQ16> rx, Sink& sink,
                          StreamCounts& counts) {
  // Wall time is measured here on the producer side: once records are
  // drained after the fact, dispatch time no longer says anything about
  // how long the stream call took.
  const auto wall_start = std::chrono::steady_clock::now();
  if (ring_ != nullptr)
    ring_->push_event(obs::EventKind::kStreamStart, now_ticks(), rx.size());

  const auto before = core_.feedback();

  // Receive-overflow gaps declared by the fault hook for this block,
  // converted to block-relative sample indices. The host never saw those
  // samples, so the core skips them with exact VITA accounting
  // (fast_forward) instead of processing stale data.
  std::vector<OverflowGap> gaps;
  if (rx_fault_ != nullptr) {
    std::vector<OverflowGap> declared;
    rx_fault_->overflow_gaps(rx_cursor_, rx.size(), declared);
    for (const OverflowGap& g : declared) {
      // Clip to this block; a gap may straddle either block boundary.
      const std::uint64_t lo = std::max(g.start_sample, rx_cursor_);
      const std::uint64_t hi =
          std::min(g.start_sample + g.length, rx_cursor_ + rx.size());
      if (hi > lo) gaps.push_back(OverflowGap{lo - rx_cursor_, hi - lo});
    }
  }
  std::size_t gap_next = 0;

  std::size_t n = 0;
  while (n < rx.size()) {
    // Service any in-flight settings-bus writes; re-latch on application.
    if (!bus_.idle() && bus_.service(core_.registers(), now_ticks()) > 0)
      core_.apply_registers();

    // An overflow gap starting at (or spilling over) this sample: flush the
    // skipped span through the core without samples.
    if (gap_next < gaps.size() && gaps[gap_next].start_sample <= n) {
      const std::uint64_t gap_end = std::min<std::uint64_t>(
          gaps[gap_next].start_sample + gaps[gap_next].length, rx.size());
      ++gap_next;
      if (gap_end > n) {
        const std::uint64_t lost = gap_end - n;
        if (ring_ != nullptr)
          ring_->push_event(obs::EventKind::kOverflowGap, now_ticks(), lost);
        core_.fast_forward(lost);
        if (ring_ != nullptr)
          ring_->push_event(obs::EventKind::kDetectorFlush, now_ticks(),
                            lost * fpga::kClocksPerSample);
        ++counts.overflow_gaps;
        counts.samples_lost += lost;
        sink.skip(static_cast<std::size_t>(lost));
        n = static_cast<std::size_t>(gap_end);
      }
      continue;
    }

    // Run up to a full chunk, but never across the fabric tick where the
    // next pending register write lands: the per-sample model serviced the
    // bus before every sample, so the block model must re-check exactly at
    // the first sample whose start tick reaches the completion time.
    std::size_t end = std::min(rx.size(), n + kChunkSamples);
    if (!bus_.idle()) {
      const std::uint64_t due = *bus_.next_completion();
      const std::uint64_t base = now_ticks();
      if (due > base) {
        const std::uint64_t ahead = (due - base + fpga::kClocksPerSample - 1) /
                                    fpga::kClocksPerSample;
        end = std::min<std::uint64_t>(end, n + std::max<std::uint64_t>(ahead, 1));
      } else {
        end = n + 1;  // unreachable after service(); stay exact regardless
      }
    }
    // ... and never across the start of the next overflow gap.
    if (gap_next < gaps.size())
      end = std::min<std::uint64_t>(end, gaps[gap_next].start_sample);

    core_.run_block(rx.subspan(n, end - n), sink);
    n = end;
  }
  rx_cursor_ += rx.size();

  const auto after = core_.feedback();
  counts.jam_triggers = after.jam_triggers - before.jam_triggers;
  counts.xcorr_detections = after.xcorr_detections - before.xcorr_detections;
  counts.energy_high_detections =
      after.energy_high_detections - before.energy_high_detections;
  counts.energy_low_detections =
      after.energy_low_detections - before.energy_low_detections;
  counts.last_trigger_vita = after.last_trigger_vita;

  if (ring_ != nullptr) {
    ring_->push_event(
        obs::EventKind::kStreamWall, now_ticks(),
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count()));
    ring_->push_event(obs::EventKind::kStreamEnd, now_ticks(), rx.size());
    // In inline-drain mode the consumer has now seen the whole stream.
    ring_->drain_if_inline();
  }
}

UsrpN210::StreamResult UsrpN210::stream_fabric(std::span<const dsp::IQ16> rx) {
  StreamResult result;
  result.tx.assign(rx.size(), dsp::cfloat{});
  on_air_.resize(rx.size());
  DuplexSink sink(dac_, result.tx, on_air_);
  run_stream(rx, sink, result);
  result.bursts = bursts_from(on_air_);
  frontend_.apply_tx(result.tx, result.tx);
  return result;
}

std::span<const dsp::IQ16> UsrpN210::receive(std::span<const dsp::cfloat> rx) {
  rx_gained_.resize(rx.size());
  frontend_.apply_rx(rx, rx_gained_);
  if (rx_fault_ != nullptr) {
    rx_fault_->mutate_rx(rx_gained_, rx_cursor_);
    if (ring_ != nullptr) {
      // Annotate the trace with each fault applied in this block, stamped
      // at the fabric tick of the fault's first sample.
      std::vector<RxFaultView> views;
      rx_fault_->applied_faults(rx_cursor_, rx.size(), views);
      const std::uint64_t base_vita = now_ticks();
      for (const RxFaultView& v : views)
        ring_->push_event(obs::EventKind::kFaultInjected,
                          base_vita + (v.at_sample - rx_cursor_) *
                                          fpga::kClocksPerSample,
                          v.kind_id);
    }
  }
  rx_iq_.resize(rx.size());
  adc_.convert(rx_gained_, rx_iq_);
  return rx_iq_;
}

UsrpN210::StreamResult UsrpN210::stream(std::span<const dsp::cfloat> rx) {
  StreamResult result = stream_fabric(receive(rx));
  result.adc_clipped = adc_.clipped();
  return result;
}

UsrpN210::StreamCounts UsrpN210::detect(std::span<const dsp::cfloat> rx) {
  const std::span<const dsp::IQ16> iq = receive(rx);
  StreamCounts counts;
  counts.adc_clipped = adc_.clipped();
  CountsSink sink;
  run_stream(iq, sink, counts);
  return counts;
}

}  // namespace rjf::radio
