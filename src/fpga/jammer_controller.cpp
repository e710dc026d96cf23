#include "fpga/jammer_controller.h"

#include <algorithm>

namespace rjf::fpga {

JammerController::JammerController() = default;

void JammerController::load_from_registers(const RegisterFile& regs) noexcept {
  settle_tx();  // owed samples belong to the waveform being replaced
  waveform_ = regs.jam_waveform();
  enabled_ = regs.jam_enabled();
  delay_samples_ = hw::UInt<16>(regs.jam_delay_samples());
  uptime_samples_ = hw::UInt<32>(regs.read(Reg::kJamDuration));
}

void JammerController::configure(JamWaveform waveform, bool enable,
                                 std::uint32_t delay_samples,
                                 std::uint32_t uptime_samples) noexcept {
  settle_tx();  // owed samples belong to the waveform being replaced
  waveform_ = waveform;
  enabled_ = enable;
  // The register field for the delay is 16 bits (kJammerControl[31:16]);
  // the checked constructor rejects configs the hardware couldn't hold.
  delay_samples_ = hw::UInt<16>(delay_samples);
  uptime_samples_ = hw::UInt<32>(uptime_samples);
}

void JammerController::set_host_waveform(std::vector<dsp::IQ16> samples) {
  settle_tx();  // owed host-stream samples step through the old buffer
  host_waveform_ = std::move(samples);
}

void JammerController::record_rx(dsp::IQ16 sample) noexcept {
  replay_[replay_write_] = sample;
  replay_write_ = (replay_write_ + 1) & kReplayMask;
}

namespace {

// The Galois step is linear over GF(2), so k steps are a 32x32 bit matrix:
// column j is the image of bit j, and a state maps to the XOR of the
// columns of its set bits.
using Gf2Matrix = std::array<hw::UInt<32>, 32>;

constexpr hw::UInt<32> gf2_apply(const Gf2Matrix& m, hw::UInt<32> x) noexcept {
  hw::UInt<32> y;
  for (std::size_t j = 0; j < m.size(); ++j)
    if (((x.u64() >> j) & 1u) != 0) y = y ^ m[j];
  return y;
}

// kLfsrJump[k] advances the LFSR by 2^k white-noise samples: 8 steps per
// sample (two lfsr_gaussian() draws of four steps). Built at compile time,
// so settling owed noise takes no lazy initialisation on the realtime path.
constexpr std::array<Gf2Matrix, 64> make_lfsr_jump_table() noexcept {
  std::array<Gf2Matrix, 64> table{};
  for (std::size_t j = 0; j < table[0].size(); ++j) {
    hw::UInt<32> x = hw::wrap_u<32>(std::uint64_t{1} << j);
    for (int s = 0; s < 8; ++s) x = lfsr_step(x);
    table[0][j] = x;
  }
  for (std::size_t k = 1; k < table.size(); ++k)
    for (std::size_t j = 0; j < table[k].size(); ++j)
      table[k][j] = gf2_apply(table[k - 1], table[k - 1][j]);
  return table;
}

constexpr std::array<Gf2Matrix, 64> kLfsrJump = make_lfsr_jump_table();

}  // namespace

std::int16_t JammerController::lfsr_gaussian() noexcept {
  // Sum of four 8-bit uniform variates, centred: a cheap CLT Gaussian
  // approximation matching what fits in fabric logic.
  hw::UInt<10> acc;  // 4 * 255 tops out at 1020
  for (int k = 0; k < 4; ++k) {
    lfsr_ = lfsr_step(lfsr_);
    acc = (acc + lfsr_.truncate<8>()).narrow<10>();
  }
  // acc in [0, 1020]; centre and scale to ~1/4 full scale RMS. The centred
  // value rides in Int<12>, the scaled product in Int<18>, and |result|
  // <= 12240 fits the 16-bit DAC rail exactly.
  return ((acc.to_signed() - hw::Int<11>(510)) * hw::Int<6>(24))
      .narrow<16>()
      .value();
}

dsp::IQ16 JammerController::next_waveform_sample() noexcept {
  settle_tx();
  switch (waveform_) {
    case JamWaveform::kWhiteNoise:
      return dsp::IQ16{lfsr_gaussian(), lfsr_gaussian()};
    case JamWaveform::kReplay: {
      const dsp::IQ16 s = replay_[playback_pos_];
      playback_pos_ = (playback_pos_ + 1) & kReplayMask;
      return s;
    }
    case JamWaveform::kHostStream: {
      if (host_waveform_.empty()) return dsp::IQ16{};
      const dsp::IQ16 s = host_waveform_[playback_pos_ % host_waveform_.size()];
      playback_pos_ = (playback_pos_ + 1) % host_waveform_.size();
      return s;
    }
  }
  return dsp::IQ16{};
}

hw::UInt<32> lfsr_jump(hw::UInt<32> state, std::uint64_t samples) noexcept {
  for (std::size_t k = 0; k < kLfsrJump.size(); ++k)
    if (((samples >> k) & 1u) != 0) state = gf2_apply(kLfsrJump[k], state);
  return state;
}

void JammerController::settle_tx() noexcept {
  if (owed_samples_ == 0) return;
  const std::uint64_t n = owed_samples_;
  owed_samples_ = 0;
  switch (waveform_) {
    case JamWaveform::kWhiteNoise:
      lfsr_ = lfsr_jump(lfsr_, n);
      break;
    case JamWaveform::kReplay:
      playback_pos_ = (playback_pos_ + n) & kReplayMask;
      break;
    case JamWaveform::kHostStream:
      if (!host_waveform_.empty())
        playback_pos_ =
            (playback_pos_ + n % host_waveform_.size()) % host_waveform_.size();
      break;
  }
}

void JammerController::start_burst() noexcept {
  // The previous burst's owed samples came from the cursor this re-seats.
  settle_tx();
  ++jam_count_;
  // Replay starts at the oldest recorded sample; the host-stream buffer
  // always plays from its beginning.
  playback_pos_ = (waveform_ == JamWaveform::kReplay) ? replay_write_ : 0;
  // The trigger clock itself is the "1 cycle to initiate"; the remaining
  // kTxInitCycles-1 clocks fill the DUC, so RF energy is on the air exactly
  // kTxInitCycles (80 ns) after the trigger.
  if (delay_samples_ > 0) {
    state_ = State::kDelay;
    countdown_cycles_ = delay_samples_ * hw::UInt<3>(kClocksPerSample);
  } else {
    start_init();
  }
}

void JammerController::start_init() noexcept {
  state_ = State::kInit;
  countdown_cycles_ = hw::UInt<19>(kTxInitCycles - 1);
}

void JammerController::start_jamming() noexcept {
  state_ = State::kJamming;
  remaining_samples_ =
      uptime_samples_ == 0 ? hw::UInt<32>(1u) : uptime_samples_;
  strobe_phase_ = hw::UInt<2>();
}

JammerController::TxOut JammerController::clock(bool trigger) noexcept {
  TxOut out;
  switch (state_) {
    case State::kIdle:
      if (trigger && enabled_) start_burst();
      break;
    case State::kDelay:
      countdown_cycles_ = hw::wrap_dec(countdown_cycles_);
      if (countdown_cycles_ == 0) start_init();
      break;
    case State::kInit:
      countdown_cycles_ = hw::wrap_dec(countdown_cycles_);
      if (countdown_cycles_ == 0) start_jamming();
      break;
    case State::kJamming:
      out.rf_active = true;
      ++cycles_jamming_;
      if (strobe_phase_ == 0) {
        out.sample_strobe = true;
        out.sample = next_waveform_sample();
        remaining_samples_ = hw::wrap_dec(remaining_samples_);
        if (remaining_samples_ == 0) state_ = State::kIdle;
      }
      strobe_phase_ = hw::wrap_inc(strobe_phase_);  // 2-bit wrap == mod 4
      break;
  }
  return out;
}

void JammerController::advance(std::uint64_t cycles) noexcept {
  while (cycles > 0) {
    switch (state_) {
      case State::kIdle:
        return;
      case State::kDelay:
      case State::kInit: {
        const std::uint64_t used =
            std::min(cycles, countdown_cycles_.u64());
        countdown_cycles_ = hw::UInt<19>(countdown_cycles_.u64() - used);
        cycles -= used;
        if (countdown_cycles_ == 0) {
          if (state_ == State::kDelay) {
            start_init();
          } else {
            start_jamming();
          }
        }
        break;
      }
      case State::kJamming: {
        // TX strobes fall on the clocks where the 2-bit phase wraps to 0;
        // the burst ends on the clock of its last one.
        const std::uint64_t to_strobe =
            hw::wrap_u<2>(kClocksPerSample - strobe_phase_.u64()).u64();
        const std::uint64_t burst_left =
            to_strobe + (remaining_samples_.u64() - 1) * kClocksPerSample + 1;
        const std::uint64_t used = std::min(cycles, burst_left);
        const std::uint64_t strobes =
            used > to_strobe
                ? (used - to_strobe + kClocksPerSample - 1) / kClocksPerSample
                : 0;
        owed_samples_ += strobes;
        remaining_samples_ =
            hw::UInt<32>(remaining_samples_.u64() - strobes);
        strobe_phase_ = hw::wrap_u<2>(strobe_phase_.u64() + used);
        cycles_jamming_ += used;
        cycles -= used;
        if (remaining_samples_ == 0) state_ = State::kIdle;
        break;
      }
    }
  }
}

void JammerController::fast_forward(std::uint64_t samples) noexcept {
  settle_tx();
  advance(samples * kClocksPerSample);
  owed_samples_ = 0;  // skipped air time: the generator is not advanced
}

void JammerController::reset() noexcept {
  settle_tx();
  state_ = State::kIdle;
  countdown_cycles_ = hw::UInt<19>();
  remaining_samples_ = hw::UInt<32>();
  strobe_phase_ = hw::UInt<2>();
  playback_pos_ = 0;
  jam_count_ = 0;
  cycles_jamming_ = 0;
}

}  // namespace rjf::fpga
