#include "core/detection_experiment.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>

#include "dsp/db.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "dsp/rng.h"
#include "fpga/dsp_core.h"
#include "obs/metrics.h"

namespace rjf::core {

DetectionTrialPlan prepare_detection_trials(
    std::span<const dsp::cfloat> frame_native, DetectorTap tap,
    const DetectionRunConfig& config) {
  DetectionTrialPlan plan;
  plan.lead_in = config.lead_in;
  plan.tail = config.tail;
  plan.noise_power = config.noise_power;
  plan.max_cfo_hz = config.max_cfo_hz;
  plan.seed = config.seed;
  plan.tap = tap;

  // Pre-render the frame at the fabric rate for each fractional timing
  // phase; trials then pick a phase at random, modelling the free-running
  // TX/RX sample clocks.
  const unsigned phases = std::max(config.timing_phases, 1u);
  const dsp::Resampler to_fabric(config.tx_rate_hz, fpga::kBasebandRateHz);
  const double target_power =
      config.noise_power * dsp::ratio_from_db(config.snr_db);
  plan.variants.resize(phases);
  for (unsigned p = 0; p < phases; ++p) {
    plan.variants[p] = to_fabric.resample(
        frame_native, static_cast<double>(p) / static_cast<double>(phases));
    dsp::set_mean_power(std::span<dsp::cfloat>(plan.variants[p]),
                        target_power);
  }
  return plan;
}

LazyPlanTable::LazyPlanTable(std::size_t num_points, Builder builder)
    : builder_(std::move(builder)),
      once_(std::make_unique<std::once_flag[]>(num_points)),
      plans_(num_points) {}

const DetectionTrialPlan& LazyPlanTable::get(std::size_t point) {
  std::call_once(once_[point], [&] {
    plans_[point] = builder_(point);
    built_.fetch_add(1, std::memory_order_relaxed);
  });
  return plans_[point];
}

void LazyPlanTable::release(std::size_t point) {
  plans_[point] = DetectionTrialPlan{};
}

namespace {

// Samples between re-anchors of cfo_rotate_add()'s phasor recurrence.
constexpr std::size_t kCfoAnchorSamples = 64;

// e^{j·w·k} in double, phase wrapped to [-pi, pi] first.
std::complex<double> cfo_anchor(double w, std::uint64_t k) noexcept {
  const double phase =
      std::remainder(w * static_cast<double>(k), 2.0 * std::numbers::pi);
  return {std::cos(phase), std::sin(phase)};
}

}  // namespace

dsp::cfloat cfo_phasor(double w, std::uint64_t k) noexcept {
  const std::complex<double> p = cfo_anchor(w, k);
  return dsp::cfloat{static_cast<float>(p.real()),
                     static_cast<float>(p.imag())};
}

void cfo_rotate_add(std::span<const dsp::cfloat> x, double w,
                    std::span<dsp::cfloat> out) noexcept {
  const double step_re = std::cos(w);
  const double step_im = std::sin(w);
  for (std::size_t k0 = 0; k0 < x.size(); k0 += kCfoAnchorSamples) {
    const std::complex<double> anchor = cfo_anchor(w, k0);
    double re = anchor.real();
    double im = anchor.imag();
    const std::size_t end = std::min(x.size(), k0 + kCfoAnchorSamples);
    for (std::size_t k = k0; k < end; ++k) {
      out[k] += x[k] * dsp::cfloat{static_cast<float>(re),
                                   static_cast<float>(im)};
      const double next_re = re * step_re - im * step_im;
      im = re * step_im + im * step_re;
      re = next_re;
    }
  }
}

void synthesize_trial_capture(const DetectionTrialPlan& plan,
                              std::size_t trial, dsp::cvec& capture) {
  // Each trial owns a derived RNG stream: impairments depend only on the
  // trial index, never on which trials ran before (or on which thread).
  dsp::Xoshiro256 rng(dsp::derive_seed(plan.seed, trial));
  const std::uint64_t noise_seed = rng.next();
  const dsp::cvec& frame = plan.variants[rng.uniform_int(plan.variants.size())];

  dsp::NoiseSource noise(plan.noise_power, noise_seed);
  capture.resize(plan.lead_in + frame.size() + plan.tail);
  for (auto& s : capture) s = noise.sample();

  // Per-trial carrier frequency offset; phase kept in double and
  // re-anchored, so long captures keep full precision (see cfo_phasor()).
  const double cfo = (2.0 * rng.uniform() - 1.0) * plan.max_cfo_hz;
  const double w = 2.0 * std::numbers::pi * cfo / fpga::kBasebandRateHz;
  cfo_rotate_add(frame, w, std::span(capture).subspan(plan.lead_in));
}

DetectionTrialOutcome run_detection_trial(ReactiveJammer& jammer,
                                          const DetectionTrialPlan& plan,
                                          std::size_t trial) {
  dsp::cvec capture;
  synthesize_trial_capture(plan, trial, capture);

  // §3.2 requires independent trials: flush the energy differentiator's
  // moving sums, the correlator pipeline and the trigger FSM so nothing
  // carries over from the previous capture.
  jammer.reset_detection_state();

  const auto run = jammer.observe_counts(capture);
  DetectionTrialOutcome outcome;
  switch (plan.tap) {
    case DetectorTap::kXcorr: outcome.events = run.xcorr_detections; break;
    case DetectorTap::kEnergyHigh:
      outcome.events = run.energy_high_detections;
      break;
    case DetectorTap::kJamTrigger: outcome.events = run.jam_triggers; break;
  }
  outcome.jam_triggers = run.jam_triggers;
  outcome.last_trigger_vita = run.last_trigger_vita;
  outcome.overflow_gaps = run.overflow_gaps;
  outcome.samples_lost = run.samples_lost;
  return outcome;
}

DetectionTrialCounts run_detection_trials(ReactiveJammer& jammer,
                                          const DetectionTrialPlan& plan,
                                          std::size_t first_trial,
                                          std::size_t num_trials,
                                          obs::MetricsRegistry* metrics) {
  DetectionTrialCounts counts;
  obs::Histogram* per_trial = nullptr;
  if (metrics != nullptr)
    // 0..14 events per trial, then overflow; covers Fig. 8's over-trigger
    // band (a few detections/frame) with headroom.
    per_trial = &metrics->histogram("sweep.detections_per_trial", 0, 1, 15);

  for (std::size_t t = first_trial; t < first_trial + num_trials; ++t) {
    const std::uint64_t events = run_detection_trial(jammer, plan, t).events;
    counts.total_detections += events;
    if (events > 0) ++counts.frames_detected;
    if (per_trial != nullptr) per_trial->record(events);
  }

  if (metrics != nullptr) {
    metrics->add("sweep.trials", num_trials);
    metrics->add("sweep.frames_detected", counts.frames_detected);
    metrics->add("sweep.detections", counts.total_detections);
  }
  return counts;
}

DetectionRunResult run_detection_experiment(
    ReactiveJammer& jammer, std::span<const dsp::cfloat> frame_native,
    DetectorTap tap, const DetectionRunConfig& config) {
  const DetectionTrialPlan plan =
      prepare_detection_trials(frame_native, tap, config);
  const DetectionTrialCounts counts =
      run_detection_trials(jammer, plan, 0, config.num_frames);

  DetectionRunResult result;
  result.frames_sent = config.num_frames;
  result.frames_detected = counts.frames_detected;
  result.total_detections = counts.total_detections;
  result.probability = static_cast<double>(result.frames_detected) /
                       static_cast<double>(result.frames_sent);
  result.detections_per_frame =
      static_cast<double>(result.total_detections) /
      static_cast<double>(result.frames_sent);
  return result;
}

}  // namespace rjf::core
