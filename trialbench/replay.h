// Traced replay of core::run_detection_trial, one public layer call at a
// time, with a steady_clock span around each call.
//
// The spans are taken from outside the library: the replay makes exactly
// the calls run_detection_trial makes (NoiseSource fill, cfo_phasor
// rotate-add, reset_detection_state, SbxFrontend::apply_rx, Adc::convert,
// UsrpN210::stream_fabric), in the same order, on the same derived RNG
// stream. A twin jammer's DspCore::run_block is fed the same IQ16 block in
// the same 8192-sample chunks to split the stream span into fabric time and
// radio bookkeeping. Every trial is also run through the library itself on
// a third jammer, and the mirror-identity guard compares the three: a
// traced run of a different program would not be a budget. A fourth
// jammer runs the library trial with an obs::Telemetry bundle attached,
// for the observability slowdown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/detection_experiment.h"
#include "core/jammer_config.h"
#include "fpga/dsp_core.h"
#include "obs/telemetry.h"
#include "radio/adc_dac.h"

namespace trialbench {

/// Summed over all replayed trials (seconds unless stated).
struct StageBudget {
  double noise = 0.0;
  double cfo = 0.0;
  double reset = 0.0;
  double frontend = 0.0;
  double adc = 0.0;
  double stream = 0.0;
  double run_block = 0.0;       // twin core, outside the traced trial
  double traced_trial = 0.0;    // replayed trial, first to last call
  double library_trial = 0.0;   // core::run_detection_trial
  double telemetry_trial = 0.0; // the same with telemetry attached
  std::vector<double> library_trial_us;
  std::uint64_t trials = 0;
  std::uint64_t samples = 0;    // capture samples, 25 MSPS domain
  std::uint64_t events = 0;     // detector events at the plan's tap
  std::uint64_t jam_triggers = 0;
  std::uint64_t stream_alloc_bytes = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

class TrialReplay {
 public:
  explicit TrialReplay(const rjf::core::JammerConfig& config);

  /// Run trial `trial` of `plan` through the library, the traced replay
  /// and the twin core; accumulate into `budget`. Returns the replay's
  /// outcome (equal to the library's unless a mismatch was recorded).
  rjf::core::DetectionTrialOutcome run(const rjf::core::DetectionTrialPlan& plan,
                                       std::size_t trial, StageBudget& budget);

 private:
  rjf::core::ReactiveJammer library_;
  rjf::core::ReactiveJammer replay_;
  rjf::core::ReactiveJammer twin_;
  rjf::obs::Telemetry telemetry_;
  rjf::core::ReactiveJammer observed_;  // declared after its telemetry
  rjf::radio::Adc adc_;  // the radio's own converter is private; same model
  std::vector<rjf::fpga::CoreOutput> scratch_;
};

}  // namespace trialbench
