// Jamming transmit controller (paper §2.4).
//
// On a trigger from the TriggerFsm the controller (optionally after a
// programmable delay used for "surgical" jamming of specific packet
// locations) schedules the TX pipeline: 1 cycle to initiate plus ~7 cycles
// to populate the DUC — 8 clock cycles (~80 ns) before RF energy leaves the
// antenna. It then emits one of three user-selectable waveforms for the
// programmed uptime:
//   (i)  pseudorandom 25 MHz white Gaussian noise,
//   (ii) repetitive replay of up to the 512 most recently received samples,
//   (iii) the waveform currently streamed to the TX buffer from the host.
// Uptime ranges from 1 sample (40 ns) to 2^32 samples.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "dsp/types.h"
#include "fpga/hw_int.h"
#include "fpga/register_file.h"

namespace rjf::fpga {

inline constexpr std::size_t kReplayDepth = 512;
// The replay ring is indexed with a power-of-two mask, not `%`.
static_assert(std::has_single_bit(kReplayDepth));
inline constexpr std::size_t kReplayMask = kReplayDepth - 1;
inline constexpr std::uint32_t kTxInitCycles = 8;  // 1 trigger + 7 DUC fill
inline constexpr std::uint32_t kClocksPerSample = 4;  // 100 MHz / 25 MSPS

/// One step of the on-fabric noise generator, a 32-bit Galois LFSR
/// (taps 32,31,29,1): logical shift right (the top bit refills with zero),
/// then apply the tap mask if the bit shifted out was set.
[[nodiscard]] constexpr hw::UInt<32> lfsr_step(hw::UInt<32> state) noexcept {
  const bool lsb = state.truncate<1>() == 1u;
  state = state.shr<1>().zext<32>();
  return lsb ? state ^ hw::UInt<32>(0xB4BCD35Cu) : state;
}

/// The generator state `samples` white-noise samples on (8 lfsr_step()s
/// each), by GF(2) matrix powers from a compile-time table: O(log samples).
[[nodiscard]] hw::UInt<32> lfsr_jump(hw::UInt<32> state,
                                     std::uint64_t samples) noexcept;

class JammerController {
 public:
  JammerController();

  void load_from_registers(const RegisterFile& regs) noexcept;

  /// Direct configuration (tests/ablations).
  void configure(JamWaveform waveform, bool enable,
                 std::uint32_t delay_samples, std::uint32_t uptime_samples) noexcept;

  /// Replace the host-streamed TX buffer (waveform (iii)).
  void set_host_waveform(std::vector<dsp::IQ16> samples);

  /// Record one received sample into the replay ring (runs continuously).
  void record_rx(dsp::IQ16 sample) noexcept;

  struct TxOut {
    bool rf_active = false;     // true while jamming energy is on the air
    dsp::IQ16 sample{};         // valid when rf_active and sample_strobe
    bool sample_strobe = false; // true on the clock a new TX sample is issued
  };

  /// Advance one 100 MHz clock. `trigger` is the FSM's jam pulse. The
  /// per-clock oracle for clock_sample() and advance().
  TxOut clock(bool trigger) noexcept;

  /// What one baseband sample period puts on the air. In step with the
  /// sample strobe (sample_aligned()), RF is on for none of its clocks, all
  /// kClocksPerSample of them, or only the first (a burst's last sample),
  /// and a TX sample is issued on the first clock whenever RF is on.
  struct SampleTx {
    std::uint32_t rf_clocks = 0;  // clocks with RF on, from the first
    dsp::IQ16 sample{};           // valid when rf_clocks > 0 and generated
  };

  /// Advance one baseband sample period, kClocksPerSample clocks with
  /// `trigger` on the first: the same state as that many clock() calls for a
  /// jammer that is sample_aligned() on entry, and it stays so. With
  /// kGenerate false the TX sample is not synthesised but owed: the
  /// waveform generator is moved past it by settle_tx(), which runs before
  /// anything reads or re-seats the generator.
  template <bool kGenerate>
  SampleTx clock_sample(bool trigger) noexcept;

  /// Advance `cycles` clocks with no trigger, exactly as that many
  /// clock(false) calls from any state and strobe phase; the TX samples
  /// those clocks issue are owed (see clock_sample()).
  void advance(std::uint64_t cycles) noexcept;

  /// Move the waveform generator past every owed TX sample: the LFSR jumps
  /// ahead 8 steps per white-noise sample, the replay and host-stream
  /// cursors step arithmetically.
  void settle_tx() noexcept;

  /// Skip `samples` baseband sample periods of air time: advance() without
  /// moving the waveform generator. Exact w.r.t. jam scheduling; used by
  /// the network simulation to skip idle air time.
  void fast_forward(std::uint64_t samples) noexcept;

  /// True when the next clock is in step with the sample strobe, as the
  /// block loop keeps it: a trigger lands on a strobe clock, the delay is
  /// whole samples and the TX init 8 clocks, so a burst's TX strobes fall
  /// on the first clock of each sample period.
  [[nodiscard]] bool sample_aligned() const noexcept {
    switch (state_) {
      case State::kIdle:
        return true;
      case State::kDelay:
        return countdown_cycles_.truncate<2>() == 1u;
      case State::kInit:
        return countdown_cycles_ == kClocksPerSample;
      case State::kJamming:
        return strobe_phase_ == 0u;
    }
    return false;
  }

  /// True while jamming energy is on the air.
  [[nodiscard]] bool rf_active() const noexcept {
    return state_ == State::kJamming;
  }

  [[nodiscard]] bool busy() const noexcept { return state_ != State::kIdle; }
  /// Same registers, countdowns, waveform cursors and counters.
  bool operator==(const JammerController&) const = default;
  [[nodiscard]] std::uint64_t jam_count() const noexcept { return jam_count_; }
  [[nodiscard]] std::uint64_t cycles_jamming() const noexcept {
    return cycles_jamming_;
  }

  void reset() noexcept;

 private:
  enum class State { kIdle, kDelay, kInit, kJamming };

  [[nodiscard]] dsp::IQ16 next_waveform_sample() noexcept;
  /// Accept a trigger: count it and start the delay or TX-init countdown.
  void start_burst() noexcept;
  /// The countdown transitions: delay -> TX init -> on the air.
  void start_init() noexcept;
  void start_jamming() noexcept;

  State state_ = State::kIdle;
  JamWaveform waveform_ = JamWaveform::kWhiteNoise;
  bool enabled_ = false;
  hw::UInt<16> delay_samples_;   // the kJammerControl field is bits[31:16]
  hw::UInt<32> uptime_samples_;

  // kDelay / kInit phase timer: at most delay * 4 clocks, so 18 bits, plus
  // one for the kTxInitCycles reload path.
  hw::UInt<19> countdown_cycles_;
  hw::UInt<32> remaining_samples_;  // kJamming phase sample counter
  // 100 MHz clock / 25 MSPS strobe divider: a free-running 2-bit counter
  // whose wrap IS the mod-4 divide.
  static_assert(kClocksPerSample == 4);
  hw::UInt<2> strobe_phase_;

  std::array<dsp::IQ16, kReplayDepth> replay_{};
  std::size_t replay_write_ = 0;
  std::size_t playback_pos_ = 0;
  std::vector<dsp::IQ16> host_waveform_;
  std::uint64_t owed_samples_ = 0;  // TX samples issued but not synthesised

  // On-fabric noise generator: 32-bit Galois LFSR feeding a CLT shaper.
  hw::UInt<32> lfsr_{0xACE1ACE1u};
  [[nodiscard]] std::int16_t lfsr_gaussian() noexcept;

  std::uint64_t jam_count_ = 0;
  std::uint64_t cycles_jamming_ = 0;
};

template <bool kGenerate>
JammerController::SampleTx JammerController::clock_sample(
    bool trigger) noexcept {
  SampleTx out;
  switch (state_) {
    case State::kJamming:
      // In step, this period's first clock is the burst's TX strobe.
      if constexpr (kGenerate) {
        out.sample = next_waveform_sample();
      } else {
        ++owed_samples_;
      }
      remaining_samples_ = hw::wrap_dec(remaining_samples_);
      if (remaining_samples_ == 0) {
        state_ = State::kIdle;
        strobe_phase_ = hw::UInt<2>(1u);
        out.rf_clocks = 1;
      } else {
        out.rf_clocks = kClocksPerSample;
      }
      cycles_jamming_ += out.rf_clocks;
      break;
    case State::kIdle:
      if (trigger && enabled_) {
        start_burst();
        advance(kClocksPerSample - 1);
      }
      break;
    case State::kDelay:
    case State::kInit:
      // A countdown: in step, it cannot reach the air before the next
      // period (the init ends on a period's last clock).
      advance(kClocksPerSample);
      break;
  }
  return out;
}

}  // namespace rjf::fpga
