// Three-stage jamming-event trigger state machine (paper §2.4).
//
// "A three-stage hardware state machine allows the user to select up to
// three trigger event combinations, all of which must occur within a
// user-assigned time interval."
//
// Each stage is a 4-bit mask over the detector outputs (xcorr, energy-high,
// energy-low). A stage fires when any masked event is asserted on the
// current clock. When the final configured stage fires within the window,
// the FSM emits a one-cycle jam trigger pulse and rearms.
//
// Window semantics: the window bounds the WHOLE sequence — `elapsed_`
// starts counting on the clock after stage 0 matches, and every later
// stage must match while `elapsed_ <= window_cycles`. The boundary is
// match-priority-over-timeout: a stage match asserted on the exact clock
// the window expires (`elapsed_ == window_cycles + 1`) still advances or
// fires, because the RTL evaluates the stage-advance path and the expiry
// comparison on the same edge and the advance wins; the timeout only
// rearms when no masked event is present on that clock. Since each such
// match consumes a stage, the sequence can overrun the window by at most
// num_stages - 1 consecutive matching clocks — it cannot be extended
// indefinitely. A window of 0 means unbounded.
#pragma once

#include <cstdint>

#include "fpga/hw_int.h"
#include "fpga/register_file.h"

namespace rjf::fpga {

struct DetectorEvents {
  bool xcorr = false;
  bool energy_high = false;
  bool energy_low = false;

  [[nodiscard]] std::uint32_t as_mask() const noexcept {
    return (xcorr ? kEventXcorr : 0u) | (energy_high ? kEventEnergyHigh : 0u) |
           (energy_low ? kEventEnergyLow : 0u);
  }
  [[nodiscard]] bool any() const noexcept {
    return xcorr || energy_high || energy_low;
  }
};

class TriggerFsm {
 public:
  void load_from_registers(const RegisterFile& regs) noexcept;

  /// Direct configuration. Stages with mask 0 are unused; window is in
  /// 100 MHz clock cycles and bounds the whole sequence.
  void configure(std::uint32_t mask0, std::uint32_t mask1, std::uint32_t mask2,
                 std::uint32_t window_cycles) noexcept;

  /// Advance one fabric clock. Returns true on the cycle the jam trigger fires.
  bool clock(const DetectorEvents& events) noexcept;

  /// Advance `n` clocks with no event asserted: the same state as n
  /// clock({}) calls, which can time the window out but never fire.
  /// Returns the clock (1..n) on which the window expired and the FSM
  /// rearmed, or 0 if it did not.
  std::uint64_t idle_clocks(std::uint64_t n) noexcept;

  [[nodiscard]] int stage() const noexcept { return stage_; }

  /// True while a partially-matched trigger sequence is pending. When not
  /// engaged, clock() with no asserted events is a provable no-op, which
  /// lets the block-processing fast path skip the call entirely.
  [[nodiscard]] bool engaged() const noexcept { return stage_ > 0; }

  void reset() noexcept;

  /// Same configuration, stage and window count.
  bool operator==(const TriggerFsm&) const = default;

 private:
  hw::UInt<4> masks_[3];     // one 4-bit event mask per stage
  hw::UInt<32> window_cycles_;
  int num_stages_ = 0;
  int stage_ = 0;
  hw::UInt<32> elapsed_;     // cycles since stage 0 fired
};

}  // namespace rjf::fpga
