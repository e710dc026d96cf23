#include "fpga/trigger_fsm.h"

#include <gtest/gtest.h>

#include <string>

#include "dsp/rng.h"

namespace rjf::fpga {
namespace {

TEST(TriggerFsm, UnconfiguredNeverFires) {
  TriggerFsm fsm;
  fsm.configure(0, 0, 0, 100);
  DetectorEvents all{true, true, true};
  for (int k = 0; k < 100; ++k) EXPECT_FALSE(fsm.clock(all));
}

TEST(TriggerFsm, SingleStageFiresImmediately) {
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, 0, 0, 100);
  EXPECT_FALSE(fsm.clock({}));
  EXPECT_TRUE(fsm.clock({.xcorr = true}));
  // Rearmed: fires again on the next matching event.
  EXPECT_TRUE(fsm.clock({.xcorr = true}));
}

TEST(TriggerFsm, MaskIsSelective) {
  TriggerFsm fsm;
  fsm.configure(kEventEnergyHigh, 0, 0, 100);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  EXPECT_FALSE(fsm.clock({.energy_low = true}));
  EXPECT_TRUE(fsm.clock({.energy_high = true}));
}

TEST(TriggerFsm, OrWithinStage) {
  TriggerFsm fsm;
  fsm.configure(kEventXcorr | kEventEnergyHigh, 0, 0, 100);
  EXPECT_TRUE(fsm.clock({.xcorr = true}));
  EXPECT_TRUE(fsm.clock({.energy_high = true}));
}

TEST(TriggerFsm, TwoStageSequence) {
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, 0, 1000);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));      // stage 0
  EXPECT_FALSE(fsm.clock({}));                   // waiting
  EXPECT_FALSE(fsm.clock({.xcorr = true}));      // wrong event for stage 1
  EXPECT_TRUE(fsm.clock({.energy_high = true})); // completes
}

TEST(TriggerFsm, ThreeStageSequence) {
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, kEventEnergyLow, 1000);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  EXPECT_FALSE(fsm.clock({.energy_high = true}));
  EXPECT_FALSE(fsm.clock({.energy_high = true}));
  EXPECT_TRUE(fsm.clock({.energy_low = true}));
}

TEST(TriggerFsm, WindowExpiryRearms) {
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, 0, 10);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  for (int k = 0; k < 20; ++k) EXPECT_FALSE(fsm.clock({}));
  // The sequence expired; an energy event alone must not complete it.
  EXPECT_FALSE(fsm.clock({.energy_high = true}));
  // But a fresh full sequence within the window fires.
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  EXPECT_TRUE(fsm.clock({.energy_high = true}));
}

TEST(TriggerFsm, MatchAtExactWindowBoundaryFires) {
  // Stage-1 match with elapsed_ == window_cycles: the last in-window clock.
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, 0, 10);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));              // stage 0, elapsed 0
  for (int k = 0; k < 9; ++k) EXPECT_FALSE(fsm.clock({}));  // elapsed 1..9
  EXPECT_TRUE(fsm.clock({.energy_high = true}));         // elapsed 10 == W
}

TEST(TriggerFsm, MatchOnExpiryClockStillFires) {
  // Regression: a match asserted on the exact clock the window expires
  // (elapsed_ == window_cycles + 1) was dropped by the pre-fix code, which
  // rearmed before testing the match. Match priority over timeout: it fires.
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, 0, 10);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  for (int k = 0; k < 10; ++k) EXPECT_FALSE(fsm.clock({}));  // elapsed 1..10
  EXPECT_TRUE(fsm.clock({.energy_high = true}));             // elapsed 11
}

TEST(TriggerFsm, OneClockPastExpiryRearms) {
  // An idle clock past the window rearms; a match after that is too late.
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, 0, 10);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  for (int k = 0; k < 11; ++k) EXPECT_FALSE(fsm.clock({}));  // elapsed 1..11
  EXPECT_FALSE(fsm.engaged());                               // rearmed
  EXPECT_FALSE(fsm.clock({.energy_high = true}));
}

TEST(TriggerFsm, ExpiryClockMatchCannotExtendIndefinitely) {
  // Each boundary-clock match consumes a stage, so a 3-stage sequence can
  // overrun the window by at most two consecutive matching clocks.
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, kEventEnergyLow, 10);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  for (int k = 0; k < 10; ++k) EXPECT_FALSE(fsm.clock({}));
  EXPECT_FALSE(fsm.clock({.energy_high = true}));  // elapsed 11: advances
  EXPECT_TRUE(fsm.clock({.energy_low = true}));    // elapsed 12: fires
  // But an idle clock between the boundary matches rearms as usual.
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  for (int k = 0; k < 10; ++k) EXPECT_FALSE(fsm.clock({}));
  EXPECT_FALSE(fsm.clock({.energy_high = true}));  // elapsed 11: advances
  EXPECT_FALSE(fsm.clock({}));                     // elapsed 12, no match
  EXPECT_FALSE(fsm.engaged());
  EXPECT_FALSE(fsm.clock({.energy_low = true}));   // sequence is gone
}

TEST(TriggerFsm, ZeroWindowMeansUnbounded) {
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, 0, 0);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  for (int k = 0; k < 100000; ++k) ASSERT_FALSE(fsm.clock({}));
  EXPECT_TRUE(fsm.clock({.energy_high = true}));
}

TEST(TriggerFsm, SimultaneousEventsAdvanceOneStagePerClock) {
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, 0, 100);
  // Both events in one clock: only stage 0 consumes; the FSM needs another
  // clock with energy_high for stage 1.
  EXPECT_FALSE(fsm.clock({.xcorr = true, .energy_high = true}));
  EXPECT_TRUE(fsm.clock({.energy_high = true}));
}

TEST(TriggerFsm, LoadFromRegisters) {
  RegisterFile regs;
  regs.set_trigger_stages(kEventXcorr, kEventEnergyHigh, 0);
  regs.write(Reg::kTriggerWindow, 50);
  TriggerFsm fsm;
  fsm.load_from_registers(regs);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));
  EXPECT_TRUE(fsm.clock({.energy_high = true}));
}

// idle_clocks(n) against n clock({}) calls from `start`: the same state,
// and the rearm reported on the clock the oracle's sequence timed out.
void expect_idle_clocks_match(const TriggerFsm& start, std::uint64_t n,
                              const std::string& where) {
  TriggerFsm oracle = start;
  std::uint64_t rearm = 0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    const bool engaged = oracle.engaged();
    ASSERT_FALSE(oracle.clock({})) << where;
    if (engaged && !oracle.engaged() && rearm == 0) rearm = k;
  }
  TriggerFsm fast = start;
  EXPECT_EQ(fast.idle_clocks(n), rearm) << where << ", n " << n;
  EXPECT_TRUE(fast == oracle) << where << ", n " << n;
}

TEST(TriggerFsm, IdleClocksMatchPerClockOracle) {
  // Random event sequences through 1-3 stage FSMs; from every state they
  // pass through, advance by counts that end before, on and after the
  // window's expiry, including inside one sample's three idle clocks.
  dsp::Xoshiro256 rng(0xF5A);
  const std::uint32_t masks[3] = {kEventXcorr, kEventEnergyHigh,
                                  kEventEnergyLow};
  for (int stages = 1; stages <= 3; ++stages) {
    for (const std::uint32_t window : {0u, 1u, 2u, 3u, 5u, 8u, 13u}) {
      TriggerFsm fsm;
      fsm.configure(masks[0], stages > 1 ? masks[1] : 0,
                    stages > 2 ? masks[2] : 0, window);
      for (int step = 0; step < 400; ++step) {
        const std::string where = std::to_string(stages) + " stages, window " +
                                  std::to_string(window) + ", step " +
                                  std::to_string(step);
        for (const std::uint64_t n :
             {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
              std::uint64_t{3}, std::uint64_t{4}, std::uint64_t{7},
              std::uint64_t{window}, std::uint64_t{window} + 1,
              std::uint64_t{window} + 2, std::uint64_t{window} + 9})
          expect_idle_clocks_match(fsm, n, where);
        if (::testing::Test::HasFatalFailure()) return;
        // Mostly idle clocks, sometimes each detector event.
        const std::uint64_t r = rng.uniform_int(8);
        (void)fsm.clock({.xcorr = r == 0, .energy_high = r == 1,
                         .energy_low = r == 2});
      }
    }
  }
}

TEST(TriggerFsm, IdleClocksWindowZeroWrapsElapsedMod2To32) {
  TriggerFsm fsm;
  fsm.configure(kEventXcorr, kEventEnergyHigh, 0, 0);
  EXPECT_FALSE(fsm.clock({.xcorr = true}));  // stage 1, elapsed 0
  EXPECT_EQ(fsm.idle_clocks(0xFFFFFFFDu), 0u);
  EXPECT_EQ(fsm.stage(), 1);
  // Clock 3 of the next eight wraps the count to 0, as wrap_inc does.
  for (std::uint64_t n = 0; n <= 8; ++n)
    expect_idle_clocks_match(fsm, n, "window 0 from 0xFFFFFFFD");
  // Unbounded: the sequence still completes after any idle stretch.
  EXPECT_EQ(fsm.idle_clocks(std::uint64_t{1} << 40), 0u);
  EXPECT_TRUE(fsm.clock({.energy_high = true}));
}

TEST(TriggerFsm, IdleClocksWindowsNearTwoToThe32) {
  for (const std::uint32_t window : {0xFFFFFFFEu, 0xFFFFFFFFu}) {
    const std::string where = "window " + std::to_string(window);
    TriggerFsm fsm;
    fsm.configure(kEventXcorr, kEventEnergyHigh, kEventEnergyLow, window);
    EXPECT_FALSE(fsm.clock({.xcorr = true}));  // stage 1, elapsed 0
    EXPECT_EQ(fsm.idle_clocks(0xFFFFFFFDu), 0u);
    for (std::uint64_t n = 0; n <= 8; ++n)
      expect_idle_clocks_match(fsm, n, where + " from 0xFFFFFFFD");
    // Up to elapsed == window: not expired yet.
    EXPECT_EQ(fsm.idle_clocks(window - 0xFFFFFFFDu), 0u);
    EXPECT_EQ(fsm.stage(), 1);
    // A stage-1 match on the next clock advances. For 2^32 - 2 that clock
    // expires the window (match priority) and leaves elapsed at 2^32 - 1;
    // for 2^32 - 1 it wraps elapsed to 0.
    EXPECT_FALSE(fsm.clock({.energy_high = true}));
    EXPECT_EQ(fsm.stage(), 2);
    for (std::uint64_t n = 0; n <= 8; ++n)
      expect_idle_clocks_match(fsm, n, where + " after the expiry match");
    if (window == 0xFFFFFFFFu) {
      // No 32-bit count exceeds this window: it never expires.
      TriggerFsm never = fsm;
      EXPECT_EQ(never.idle_clocks(std::uint64_t{1} << 40), 0u);
      EXPECT_EQ(never.stage(), 2);
    } else {
      // elapsed is 2^32 - 1: the next clock wraps it to 0, and it next
      // exceeds the window on clock window + 2, not on the first clock.
      TriggerFsm before = fsm;
      EXPECT_EQ(before.idle_clocks(std::uint64_t{window} + 1), 0u);
      EXPECT_EQ(before.stage(), 2);
      TriggerFsm on = fsm;
      EXPECT_EQ(on.idle_clocks(std::uint64_t{window} + 2),
                std::uint64_t{window} + 2);
      EXPECT_EQ(on.stage(), 0);
    }
  }
}

TEST(DetectorEvents, MaskEncoding) {
  EXPECT_EQ((DetectorEvents{true, false, false}).as_mask(), kEventXcorr);
  EXPECT_EQ((DetectorEvents{false, true, false}).as_mask(), kEventEnergyHigh);
  EXPECT_EQ((DetectorEvents{false, false, true}).as_mask(), kEventEnergyLow);
  EXPECT_EQ((DetectorEvents{true, true, true}).as_mask(),
            kEventXcorr | kEventEnergyHigh | kEventEnergyLow);
}

}  // namespace
}  // namespace rjf::fpga
