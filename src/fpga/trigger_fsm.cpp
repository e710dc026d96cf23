#include "fpga/trigger_fsm.h"

namespace rjf::fpga {

void TriggerFsm::load_from_registers(const RegisterFile& regs) noexcept {
  configure(regs.trigger_stage_mask(0), regs.trigger_stage_mask(1),
            regs.trigger_stage_mask(2), regs.read(Reg::kTriggerWindow));
}

void TriggerFsm::configure(std::uint32_t mask0, std::uint32_t mask1,
                           std::uint32_t mask2,
                           std::uint32_t window_cycles) noexcept {
  masks_[0] = hw::wrap_u<4>(mask0);
  masks_[1] = hw::wrap_u<4>(mask1);
  masks_[2] = hw::wrap_u<4>(mask2);
  window_cycles_ = hw::UInt<32>(window_cycles);
  num_stages_ = 0;
  for (int s = 0; s < 3; ++s)
    if (masks_[s] != 0) num_stages_ = s + 1;
  reset();
}

bool TriggerFsm::clock(const DetectorEvents& events) noexcept {
  if (num_stages_ == 0) return false;

  const hw::UInt<4> asserted = hw::wrap_u<4>(events.as_mask());
  // Window timeout: abandon a partially-matched sequence and rearm — unless
  // a masked event for the pending stage is asserted on this same clock. In
  // the RTL the stage-advance and expiry comparisons are evaluated on the
  // same edge and the advance path wins, so a match landing on the expiry
  // tick still completes (see the header's window-semantics note).
  if (stage_ > 0) {
    elapsed_ = hw::wrap_inc(elapsed_);
    if (window_cycles_ > 0 && elapsed_ > window_cycles_ &&
        (asserted & masks_[stage_]) == 0)
      reset();
  }
  // A stage whose mask is 0 in the middle of the sequence can never fire;
  // configure() guarantees contiguous stages by construction of num_stages_.
  if ((asserted & masks_[stage_]) == 0) return false;

  if (stage_ + 1 >= num_stages_) {
    reset();
    return true;  // final stage matched -> jam trigger pulse
  }
  ++stage_;
  if (stage_ == 1) elapsed_ = hw::UInt<32>();
  return false;
}

std::uint64_t TriggerFsm::idle_clocks(std::uint64_t n) noexcept {
  if (stage_ == 0) return 0;
  // Idle clock k leaves elapsed_ at (e + k) mod 2^32, as wrap_inc does, and
  // rearms on the first k where that exceeds a non-zero window. In 64 bits
  // neither sum wraps, so a window near 2^32 is not stepped past: with
  // the window at 2^32 - 1 no 32-bit count exceeds it, and from
  // e = 2^32 - 1 the count wraps to 0 before it can.
  const std::uint64_t e = elapsed_.u64();
  const std::uint64_t w = window_cycles_.u64();
  constexpr std::uint64_t kTop = hw::UInt<32>::kMax;
  if (w != 0 && w != kTop) {
    const std::uint64_t expiry = e == kTop ? w + 2 : (e >= w ? 1 : w + 1 - e);
    if (expiry <= n) {
      reset();
      return expiry;
    }
  }
  elapsed_ = hw::wrap_u<32>(e + n);
  return 0;
}

void TriggerFsm::reset() noexcept {
  stage_ = 0;
  elapsed_ = hw::UInt<32>();
}

}  // namespace rjf::fpga
