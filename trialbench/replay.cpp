#include "replay.h"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <numbers>
#include <span>

#include "dsp/noise.h"
#include "dsp/rng.h"
#include "trialbench.h"

// Bytes allocated on the calling thread while counting is armed. The
// replay arms it around UsrpN210::stream_fabric only, so the count is what
// a detection trial's stream call allocates (TX waveform, per-tick trace
// scratch, burst list) whatever the library's internal buffer sizes are.
namespace {
thread_local bool t_count_allocs = false;
thread_local std::uint64_t t_alloc_bytes = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (t_count_allocs) t_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace trialbench {

namespace rc = rjf::core;
namespace dsp = rjf::dsp;
namespace fpga = rjf::fpga;

namespace {

// UsrpN210::stream_fabric's run_block chunk; the twin core uses the same
// chunking so its fabric work matches the stream call's exactly.
constexpr std::size_t kChunkSamples = 8192;

std::uint64_t tap_events(const rjf::radio::UsrpN210::StreamResult& run,
                         rc::DetectorTap tap) {
  switch (tap) {
    case rc::DetectorTap::kXcorr: return run.xcorr_detections;
    case rc::DetectorTap::kEnergyHigh: return run.energy_high_detections;
    case rc::DetectorTap::kJamTrigger: return run.jam_triggers;
  }
  return 0;
}

bool same_feedback(const fpga::HostFeedback& a, const fpga::HostFeedback& b) {
  return a.xcorr_detections == b.xcorr_detections &&
         a.energy_high_detections == b.energy_high_detections &&
         a.energy_low_detections == b.energy_low_detections &&
         a.jam_triggers == b.jam_triggers &&
         a.last_trigger_vita == b.last_trigger_vita &&
         a.vita_ticks == b.vita_ticks;
}

}  // namespace

TrialReplay::TrialReplay(const rc::JammerConfig& config)
    : library_(config),
      replay_(config),
      twin_(config),
      telemetry_([] {
        // Counters only, as the sweep engine attaches per-shard telemetry.
        rjf::obs::TelemetryConfig tc;
        tc.probe_enabled = false;
        return tc;
      }()),
      observed_(config),
      scratch_(kChunkSamples * fpga::kClocksPerSample) {
  observed_.attach_trace(&telemetry_);
}

rc::DetectionTrialOutcome TrialReplay::run(const rc::DetectionTrialPlan& plan,
                                           std::size_t trial,
                                           StageBudget& b) {
  const Clock::time_point lib_start = Clock::now();
  const rc::DetectionTrialOutcome lib =
      rc::run_detection_trial(library_, plan, trial);
  const double lib_s = seconds_since(lib_start);
  b.library_trial += lib_s;
  b.library_trial_us.push_back(lib_s * 1e6);

  const Clock::time_point obs_start = Clock::now();
  (void)rc::run_detection_trial(observed_, plan, trial);
  b.telemetry_trial += seconds_since(obs_start);

  // --- Traced replay: the calls run_detection_trial makes, in order.
  const Clock::time_point start = Clock::now();
  dsp::Xoshiro256 rng(dsp::derive_seed(plan.seed, trial));
  const std::uint64_t noise_seed = rng.next();
  const dsp::cvec& frame = plan.variants[rng.uniform_int(plan.variants.size())];

  Clock::time_point t0 = Clock::now();
  dsp::NoiseSource noise(plan.noise_power, noise_seed);
  dsp::cvec capture(plan.lead_in + frame.size() + plan.tail);
  for (auto& s : capture) s = noise.sample();
  Clock::time_point t1 = Clock::now();
  b.noise += std::chrono::duration<double>(t1 - t0).count();

  const double cfo = (2.0 * rng.uniform() - 1.0) * plan.max_cfo_hz;
  const double w = 2.0 * std::numbers::pi * cfo / fpga::kBasebandRateHz;
  for (std::size_t k = 0; k < frame.size(); ++k)
    capture[plan.lead_in + k] += frame[k] * rc::cfo_phasor(w, k);
  t0 = Clock::now();
  b.cfo += std::chrono::duration<double>(t0 - t1).count();

  replay_.reset_detection_state();
  t1 = Clock::now();
  b.reset += std::chrono::duration<double>(t1 - t0).count();

  const dsp::cvec gained = replay_.radio().frontend().apply_rx(capture);
  t0 = Clock::now();
  b.frontend += std::chrono::duration<double>(t0 - t1).count();

  const dsp::iqvec iq = adc_.convert(gained);
  t1 = Clock::now();
  b.adc += std::chrono::duration<double>(t1 - t0).count();

  t_alloc_bytes = 0;
  t_count_allocs = true;
  const auto run = replay_.radio().stream_fabric(iq);
  t_count_allocs = false;
  t0 = Clock::now();
  b.stream += std::chrono::duration<double>(t0 - t1).count();
  b.stream_alloc_bytes += t_alloc_bytes;

  rc::DetectionTrialOutcome out;
  out.events = tap_events(run, plan.tap);
  out.jam_triggers = run.jam_triggers;
  out.last_trigger_vita = run.last_trigger_vita;
  b.traced_trial += seconds_since(start);

  // --- Twin core: the fabric share of the stream span.
  twin_.reset_detection_state();
  t0 = Clock::now();
  for (std::size_t n = 0; n < iq.size(); n += kChunkSamples) {
    const std::size_t len = std::min(kChunkSamples, iq.size() - n);
    twin_.radio().core().run_block(
        std::span(iq).subspan(n, len),
        std::span(scratch_).first(len * fpga::kClocksPerSample));
  }
  b.run_block += seconds_since(t0);

  ++b.trials;
  b.samples += capture.size();
  b.events += out.events;
  b.jam_triggers += out.jam_triggers;

  // --- Mirror-identity guard.
  std::string why;
  if (out.events != lib.events) why = "events";
  else if (out.jam_triggers != lib.jam_triggers) why = "jam_triggers";
  else if (out.last_trigger_vita != lib.last_trigger_vita)
    why = "last_trigger_vita";
  else if (!same_feedback(twin_.feedback(), replay_.feedback()))
    why = "twin feedback counters";
  if (!why.empty()) {
    if (b.mismatches == 0)
      b.first_mismatch = why + " differ at trial " + std::to_string(trial) +
                         " (seed " + std::to_string(plan.seed) + ")";
    ++b.mismatches;
  }
  return out;
}

}  // namespace trialbench
