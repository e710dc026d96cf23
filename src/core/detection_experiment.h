// Detection-probability measurement harness (paper §3.2 methodology).
//
// "For probability of detection, we generate and send 10000 WiFi frames
// (or pseudo frames), at 130 frames per second, and count the number of
// detections." Frames are far enough apart (7.7 ms) that each one is an
// independent trial; the harness therefore runs one capture per frame —
// lead-in noise, the frame at the target SNR, tail noise — and counts
// detector events inside it, which is statistically identical and tractable.
//
// Trials are *strictly* independent: every trial seeds its own RNG stream
// (dsp::derive_seed(config.seed, trial_index)) and the fabric's detector
// state is flushed before each capture (ReactiveJammer::
// reset_detection_state()), so trial N's moving sums, correlator pipeline
// and trigger-FSM stage can never leak into trial N+1, and per-trial
// results depend only on the trial index — not on execution order. That
// property is what lets the sweep engine (core/sweep.h) shard a run across
// worker threads and still reproduce the sequential counts bit-for-bit.
//
// The transmitter runs at its standard's native rate; the harness converts
// each frame to the jammer's 25 MSPS sampling domain with a per-trial
// random fractional timing offset (independent TX/RX sample clocks) and a
// per-trial carrier frequency offset (two free-running N210 oscillators),
// then sets the SNR where the paper measures it: at the receiver.
//
// This layer is protocol-agnostic: callers hand in the frame waveform and
// its native rate. The protocol-target registry (core/scenario.h) supplies
// both from a target handle — run_target_detection_experiment /
// run_target_detection_sweep are the entry points experiments should use.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/reactive_jammer.h"

namespace rjf::obs {
class MetricsRegistry;
}  // namespace rjf::obs

namespace rjf::core {

struct DetectionRunConfig {
  double snr_db = 10.0;
  double noise_power = 0.01;     // receiver noise floor (linear)
  std::size_t num_frames = 1000;
  std::size_t lead_in = 256;     // noise-only samples before the frame
  std::size_t tail = 256;        // and after
  double tx_rate_hz = 20e6;      // native rate of the supplied frame
  unsigned timing_phases = 8;    // distinct fractional timing offsets
  double max_cfo_hz = 3000.0;    // |CFO| bound, uniform per trial
  std::uint64_t seed = 1;
};

struct DetectionRunResult {
  std::size_t frames_sent = 0;
  std::size_t frames_detected = 0;      // >= 1 event during the frame
  std::uint64_t total_detections = 0;   // events summed over all frames
  double probability = 0.0;             // frames_detected / frames_sent
  double detections_per_frame = 0.0;    // total / frames (Fig. 8 over-trigger)
};

enum class DetectorTap { kXcorr, kEnergyHigh, kJamTrigger };

/// Everything a trial needs that is shared (read-only) across trials: the
/// frame pre-rendered at the fabric rate for each fractional timing phase,
/// scaled to the target receive power, plus the per-trial impairment
/// bounds. Immutable after prepare_detection_trials(), so any number of
/// worker threads may run trials against the same plan concurrently.
struct DetectionTrialPlan {
  std::vector<dsp::cvec> variants;  // one per timing phase, fabric rate
  std::size_t lead_in = 0;
  std::size_t tail = 0;
  double noise_power = 0.0;
  double max_cfo_hz = 0.0;
  std::uint64_t seed = 0;           // base seed; trial t uses derive_seed(seed, t)
  DetectorTap tap = DetectorTap::kXcorr;
};

/// Pre-render `frame_native` for every timing phase at the experiment's SNR.
[[nodiscard]] DetectionTrialPlan prepare_detection_trials(
    std::span<const dsp::cfloat> frame_native, DetectorTap tap,
    const DetectionRunConfig& config);

/// Thread-safe lazily built table of per-point trial plans.
///
/// prepare_detection_trials() resamples and power-scales the frame once per
/// timing phase — the dominant per-point setup cost. Building every point's
/// plan up front serialises that work before the worker pool even starts
/// (on wide campaign grids, seconds of single-threaded stall), and a
/// resumed campaign would pay it again for points whose shards are already
/// checkpointed. The table instead builds each plan on first use from
/// whichever worker touches the point first (std::call_once per point), so
/// plan prep overlaps shard execution across the pool and fully completed
/// points are never prepared at all.
///
/// The builder must be a pure function of the point index (the plans here
/// always are: they depend only on the sweep config and derived seeds), so
/// which worker builds a plan can never affect its contents.
class LazyPlanTable {
 public:
  using Builder = std::function<DetectionTrialPlan(std::size_t point)>;

  LazyPlanTable(std::size_t num_points, Builder builder);

  /// The point's plan, building it on first use. Safe to call from any
  /// number of workers concurrently; the reference stays valid until the
  /// point is released or the table dies.
  [[nodiscard]] const DetectionTrialPlan& get(std::size_t point);

  [[nodiscard]] std::size_t num_points() const noexcept {
    return plans_.size();
  }
  /// Free the point's plan once no worker holds it or will ask for it
  /// again (its last shard has run), so a run's plan memory peaks at the
  /// points in flight rather than at the whole grid.
  void release(std::size_t point);

  /// Plans actually built so far (diagnostics: a campaign resume should
  /// build only the points that still had shards to run).
  [[nodiscard]] std::size_t plans_built() const noexcept {
    return built_.load(std::memory_order_relaxed);
  }

 private:
  Builder builder_;
  std::unique_ptr<std::once_flag[]> once_;
  std::vector<DetectionTrialPlan> plans_;
  std::atomic<std::size_t> built_{0};
};

/// Partial counts from a contiguous range of trials. Counts merge by plain
/// addition, so shard outcomes combine associatively and commutatively —
/// the aggregate is identical for any partition of the trial range.
struct DetectionTrialCounts {
  std::size_t frames_detected = 0;
  std::uint64_t total_detections = 0;
  void merge(const DetectionTrialCounts& other) noexcept {
    frames_detected += other.frames_detected;
    total_detections += other.total_detections;
  }
};

/// Everything one trial produced, for harnesses (e.g. the fault-robustness
/// sweep) that need per-trial detail beyond the aggregated counts.
/// last_trigger_vita is capture-relative because the detector state (and
/// VITA clock) is flushed at the start of every trial.
struct DetectionTrialOutcome {
  std::uint64_t events = 0;             // detector events at the plan's tap
  std::uint64_t jam_triggers = 0;
  std::uint64_t last_trigger_vita = 0;
  std::uint64_t overflow_gaps = 0;      // fault accounting; 0 on clean runs
  std::uint64_t samples_lost = 0;
};

/// Build trial `trial`'s capture of `plan` into `capture` (resized to
/// lead_in + frame + tail). From the derived stream
/// dsp::derive_seed(plan.seed, trial) it draws, in this order: the noise
/// seed (next()), the timing phase (uniform_int), and the CFO (uniform(),
/// uniform over ±plan.max_cfo_hz). It then fills the capture with
/// dsp::NoiseSource noise of plan.noise_power and rotate-adds the chosen
/// variant at lead_in with cfo_rotate_add().
///
/// Oracle: the same capture built per sample from
/// Xoshiro256::complex_gaussian and cfo_phasor agrees to within a float
/// ulp, and its ADC-quantised IQ16 is identical
/// (tests/test_core_detection_capture.cpp).
void synthesize_trial_capture(const DetectionTrialPlan& plan,
                              std::size_t trial, dsp::cvec& capture);

/// Run exactly one trial of `plan`: synthesize_trial_capture(), then flush
/// the fabric's detector state, stream the capture, and read the tap. The
/// outcome depends only on (plan.seed, trial) and the jammer's programmed
/// state — run_detection_trials() is a loop over this kernel.
[[nodiscard]] DetectionTrialOutcome run_detection_trial(
    ReactiveJammer& jammer, const DetectionTrialPlan& plan, std::size_t trial);

/// The per-trial kernel: run trials [first_trial, first_trial + num_trials)
/// of `plan` through `jammer`. Each trial flushes the fabric's detector
/// state and draws its impairments from its own derived RNG stream, so the
/// result depends only on (plan.seed, trial index). When `metrics` is
/// non-null the kernel records trial/detection counters and a
/// detections-per-trial histogram into it (callers running shards give each
/// shard its own registry and merge afterwards).
[[nodiscard]] DetectionTrialCounts run_detection_trials(
    ReactiveJammer& jammer, const DetectionTrialPlan& plan,
    std::size_t first_trial, std::size_t num_trials,
    obs::MetricsRegistry* metrics = nullptr);

/// Unit phasor e^{j·w·k} for the per-trial CFO rotation, evaluated in
/// double precision with the phase wrapped to [-pi, pi] before the cast to
/// float. Accumulating w·k in float loses ~milliradians of phase by the
/// end of a WiMAX-length capture (24-bit mantissa at phase magnitudes of
/// thousands of radians); wrapping first keeps the error at double
/// round-off regardless of capture length.
[[nodiscard]] dsp::cfloat cfo_phasor(double w, std::uint64_t k) noexcept;

/// out[k] += x[k] * e^{j·w·k} for k in [0, x.size()); out.size() >= x.size().
///
/// The phasor advances by one double-precision complex multiply per sample
/// and re-anchors to cfo_phasor()'s double value every 64 samples, so
/// the recurrence's round-off never builds up past 64 steps (~1e-14,
/// against float's 6e-8). Each sample's float phasor is therefore
/// cfo_phasor(w, k) in all but a vanishing fraction of cases, and within a
/// float ulp of it always, at a fraction of the per-sample remainder +
/// cos + sin cost. cfo_phasor() stays the anchor and the test oracle.
void cfo_rotate_add(std::span<const dsp::cfloat> x, double w,
                    std::span<dsp::cfloat> out) noexcept;

/// Run the experiment: `frame_native` is the frame waveform at
/// `config.tx_rate_hz` with arbitrary scale (re-scaled per-trial).
/// Equivalent to prepare_detection_trials() + one run_detection_trials()
/// over the whole range — the sweep engine's sharded execution reproduces
/// this sequential path bit-for-bit.
[[nodiscard]] DetectionRunResult run_detection_experiment(
    ReactiveJammer& jammer, std::span<const dsp::cfloat> frame_native,
    DetectorTap tap, const DetectionRunConfig& config);

}  // namespace rjf::core
