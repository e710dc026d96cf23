// Simulation-performance microbenchmarks (google-benchmark): how fast the
// cycle-accurate fabric and radio layers run on the host. These bound how
// much paper-scale experimentation (10000-frame characterisations,
// 60-second iperf runs) costs in wall-clock time. PHY pipeline numbers
// (FFT, WiFi TX/RX, Viterbi) live in bench_phy / BENCH_phy.json —
// each bench binary owns its own metrics, no duplicates.
//
// Besides the console table, the run emits a machine-readable summary to
// BENCH_fabric.json (override the path with RJF_BENCH_JSON): samples/s per
// stage plus the bit-parallel, block-processing, counts-only stream (on
// noise and on a jammed capture), trial-synthesis and resampler tap-memo
// speedup ratios over their
// per-sample / per-tick / full-duplex / per-tap reference paths (same run, same host), so the perf
// trajectory is trackable across commits.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <numbers>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/detection_experiment.h"
#include "core/reactive_jammer.h"
#include "core/scenario.h"
#include "core/templates.h"
#include "dsp/noise.h"
#include "dsp/resampler.h"
#include "dsp/rng.h"
#include "fpga/dsp_core.h"
#include "obs/telemetry.h"
#include "radio/usrp_n210.h"

using namespace rjf;

namespace {

void program_detection_core(fpga::DspCore& core) {
  fpga::program_template(core.registers(), core::wifi_short_preamble_template());
  core.registers().write(fpga::Reg::kXcorrThreshold, 1u << 20);
  core.registers().set_trigger_stages(fpga::kEventXcorr, 0, 0);
  core.apply_registers();
}

void BM_DspCoreTick(benchmark::State& state) {
  fpga::DspCore core;
  program_detection_core(core);
  dsp::NoiseSource noise(0.01, 1);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core.tick(samples[k % samples.size()]));
    for (int c = 1; c < 4; ++c) benchmark::DoNotOptimize(core.tick(std::nullopt));
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["baseband_samples_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DspCoreTick);

void BM_DspCoreRunBlock(benchmark::State& state) {
  fpga::DspCore core;
  program_detection_core(core);
  dsp::NoiseSource noise(0.01, 1);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  std::vector<fpga::CoreOutput> out(samples.size() * fpga::kClocksPerSample);
  for (auto _ : state) {
    core.run_block(samples, out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
  state.counters["baseband_samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * samples.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DspCoreRunBlock);

// Same block pass with the full telemetry bundle attached: the core keeps
// its straight-line block loop and appends event-ring records behind the
// rare-event branches plus 1-in-N sampled strobe snapshots, drained into
// the recorder/metrics/probe at block boundaries. The ratio against
// BM_DspCoreRunBlock is the price of turning tracing ON — the CI gate
// holds it at `trace_attached_slowdown` <= 1.5 — while the no-ring path
// itself must stay fast (the gate also watches BM_DspCoreRunBlock).
void BM_DspCoreRunBlockTraced(benchmark::State& state) {
  fpga::DspCore core;
  program_detection_core(core);
  obs::Telemetry telemetry;
  core.set_ring(&telemetry.ring());
  dsp::NoiseSource noise(0.01, 1);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  std::vector<fpga::CoreOutput> out(samples.size() * fpga::kClocksPerSample);
  for (auto _ : state) {
    core.run_block(samples, out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
  state.counters["baseband_samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * samples.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DspCoreRunBlockTraced);

// Both correlator benches sweep a whole buffer per iteration so the
// measured per-item cost is the kernel, not the bench loop bookkeeping.
void BM_CrossCorrelatorStep(benchmark::State& state) {
  fpga::CrossCorrelator corr;
  const auto tpl = core::wifi_long_preamble_template();
  corr.set_coefficients(tpl.coef_i, tpl.coef_q);
  dsp::NoiseSource noise(0.01, 2);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const dsp::IQ16 s : samples) acc += corr.step(s).metric;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_CrossCorrelatorStep);

void BM_CrossCorrelatorStepReference(benchmark::State& state) {
  fpga::CrossCorrelator corr;
  const auto tpl = core::wifi_long_preamble_template();
  corr.set_coefficients(tpl.coef_i, tpl.coef_q);
  dsp::NoiseSource noise(0.01, 2);
  const dsp::iqvec samples = dsp::to_iq16(noise.block(4096));
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const dsp::IQ16 s : samples) acc += corr.step_reference(s).metric;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_CrossCorrelatorStepReference);

void program_stream_radio(radio::UsrpN210& radio) {
  fpga::program_template(radio.core().registers(),
                         core::wifi_short_preamble_template());
  radio.write_register_now(fpga::Reg::kXcorrThreshold, 1u << 20);
}

void BM_UsrpStream(benchmark::State& state) {
  radio::UsrpN210 radio;
  program_stream_radio(radio);
  dsp::NoiseSource noise(0.001, 6);
  const dsp::cvec rx = noise.block(65536);
  for (auto _ : state) {
    benchmark::DoNotOptimize(radio.stream(rx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rx.size()));
}
BENCHMARK(BM_UsrpStream);

// The same capture through the counts-only entry a detection trial uses:
// no per-tick output, TX waveform or burst list. stream_counts_speedup is
// its same-run ratio over BM_UsrpStream. The capture is noise, so the
// jammer never goes on air and the ratio is a floor: on jammed captures
// the duplex sink does more work per sample.
void BM_UsrpStreamCounts(benchmark::State& state) {
  radio::UsrpN210 radio;
  program_stream_radio(radio);
  dsp::NoiseSource noise(0.001, 6);
  const dsp::cvec rx = noise.block(65536);
  for (auto _ : state) {
    benchmark::DoNotOptimize(radio.detect(rx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rx.size()));
}
BENCHMARK(BM_UsrpStreamCounts);

// The same pair of entries on a capture the jammer answers: 802.11a/g
// detection captures (54 Mb/s, 310-byte PSDU, 6 dB) back to back, through
// the 0.1 ms reactive preset of the detection workloads, so the jammer is
// on the air for most samples (the on_air counter of BM_UsrpStreamJammed).
// detect_jammed_speedup is the same-run ratio of the two: where the
// counts entry gains from owing the jam samples it never reads.
struct JammedCapture {
  core::JammerConfig config;
  dsp::cvec rx;
};

const JammedCapture& jammed_capture() {
  static const JammedCapture capture = [] {
    const core::ProtocolTarget& ofdm = core::target_or_throw("wifi_ofdm");
    core::DetectionRunConfig run;
    run.snr_db = 6.0;
    run.tx_rate_hz = ofdm.native_rate_hz;
    run.seed = 0xB3;
    const core::DetectionTrialPlan plan = core::prepare_detection_trials(
        core::target_frame(ofdm, ofdm.default_rate_index, 310, 0xA5, 0x5D),
        core::DetectorTap::kXcorr, run);
    JammedCapture out{core::target_reactive_preset(ofdm, 1e-4), {}};
    dsp::cvec trial;
    for (std::size_t t = 0; out.rx.size() < 65536; ++t) {
      core::synthesize_trial_capture(plan, t, trial);
      out.rx.insert(out.rx.end(), trial.begin(), trial.end());
    }
    return out;
  }();
  return capture;
}

void BM_UsrpDetectJammed(benchmark::State& state) {
  const JammedCapture& capture = jammed_capture();
  core::ReactiveJammer jammer(capture.config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jammer.radio().detect(capture.rx));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(capture.rx.size()));
}
BENCHMARK(BM_UsrpDetectJammed);

void BM_UsrpStreamJammed(benchmark::State& state) {
  const JammedCapture& capture = jammed_capture();
  core::ReactiveJammer jammer(capture.config);
  std::size_t on_air = 0;
  std::size_t streamed = 0;
  for (auto _ : state) {
    const radio::UsrpN210::StreamResult result =
        jammer.radio().stream(capture.rx);
    for (const radio::JamBurst& b : result.bursts) on_air += b.length;
    streamed += capture.rx.size();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(capture.rx.size()));
  state.counters["on_air"] =
      static_cast<double>(on_air) / static_cast<double>(streamed);
}
BENCHMARK(BM_UsrpStreamJammed);

// Plan synthesis: the 20 -> 25 MHz frame conversion with the per-call tap
// memo, against the per-tap kernel evaluation it replaced (the oracle);
// resample_speedup is the same-run ratio. One item is one input sample.
void BM_Resample20to25(benchmark::State& state) {
  dsp::NoiseSource noise(1.0, 4);
  const dsp::cvec in = noise.block(4960);  // one 54 Mb/s frame's worth
  const dsp::Resampler rs(20e6, 25e6);
  for (auto _ : state) benchmark::DoNotOptimize(rs.resample(in));
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_Resample20to25);

void BM_ResampleReference(benchmark::State& state) {
  dsp::NoiseSource noise(1.0, 4);
  const dsp::cvec in = noise.block(4960);
  const dsp::Resampler rs(20e6, 25e6);
  for (auto _ : state) benchmark::DoNotOptimize(rs.resample_reference(in));
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_ResampleReference);

// The 802.11b DSSS plan conversion: 11 Mchip/s to the fabric's 25 MSPS.
void BM_Resample11to25(benchmark::State& state) {
  dsp::NoiseSource noise(1.0, 5);
  const dsp::cvec in = noise.block(11000);  // 1 ms of chips
  const dsp::Resampler rs(11e6, 25e6);
  for (auto _ : state) benchmark::DoNotOptimize(rs.resample(in));
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_Resample11to25);

// Trial synthesis: the capture noise fill and the CFO rotate-add that
// core::synthesize_trial_capture runs per detection trial, each against its
// per-sample oracle (Xoshiro256::complex_gaussian, core::cfo_phasor). One
// item is one complex sample; a DSSS 1 Mb/s capture is ~67k samples.
constexpr std::size_t kSynthSamples = 16384;

void BM_NoiseFill(benchmark::State& state) {
  dsp::NoiseSource noise(0.01, 1);
  dsp::cvec capture(kSynthSamples);
  for (auto _ : state) {
    for (auto& s : capture) s = noise.sample();
    benchmark::DoNotOptimize(capture.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(capture.size()));
}
BENCHMARK(BM_NoiseFill);

void BM_NoiseReference(benchmark::State& state) {
  dsp::Xoshiro256 rng(1);
  dsp::cvec capture(kSynthSamples);
  for (auto _ : state) {
    for (auto& s : capture) s = rng.complex_gaussian(0.01);
    benchmark::DoNotOptimize(capture.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(capture.size()));
}
BENCHMARK(BM_NoiseReference);

// 3 kHz CFO at 25 MSPS, the detection harness's default bound.
constexpr double kCfoW = 2.0 * std::numbers::pi * 3000.0 / 25e6;

void BM_CfoRotate(benchmark::State& state) {
  const dsp::cvec frame = dsp::make_wgn(kSynthSamples, 1.0, 3);
  dsp::cvec capture(kSynthSamples);
  for (auto _ : state) {
    core::cfo_rotate_add(frame, kCfoW, capture);
    benchmark::DoNotOptimize(capture.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_CfoRotate);

void BM_CfoPhasorReference(benchmark::State& state) {
  const dsp::cvec frame = dsp::make_wgn(kSynthSamples, 1.0, 3);
  dsp::cvec capture(kSynthSamples);
  for (auto _ : state) {
    for (std::size_t k = 0; k < frame.size(); ++k)
      capture[k] += frame[k] * core::cfo_phasor(kCfoW, k);
    benchmark::DoNotOptimize(capture.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_CfoPhasorReference);

// Console reporter that also collects each benchmark's item rate so main()
// can emit the BENCH_fabric.json summary.
class RateCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end())
        rates_[run.benchmark_name()] = static_cast<double>(it->second);
    }
  }

  [[nodiscard]] double rate(const std::string& name) const {
    const auto it = rates_.find(name);
    return it == rates_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& rates() const {
    return rates_;
  }

 private:
  std::map<std::string, double> rates_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  RateCollector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();

  rjf::bench::JsonWriter json;
  json.set("bench", std::string("fabric_throughput"));
  for (const auto& [name, rate] : collector.rates())
    json.set(name + "_items_per_s", rate);

  const double ref = collector.rate("BM_CrossCorrelatorStepReference");
  const double fast = collector.rate("BM_CrossCorrelatorStep");
  if (ref > 0.0 && fast > 0.0)
    json.set("xcorr_bitparallel_speedup", fast / ref);
  const double tick = collector.rate("BM_DspCoreTick");
  const double block = collector.rate("BM_DspCoreRunBlock");
  if (tick > 0.0 && block > 0.0)
    json.set("dsp_core_block_speedup", block / tick);
  const double traced = collector.rate("BM_DspCoreRunBlockTraced");
  if (traced > 0.0 && block > 0.0)
    json.set("trace_attached_slowdown", block / traced);
  const double noise_ref = collector.rate("BM_NoiseReference");
  const double noise_fill = collector.rate("BM_NoiseFill");
  if (noise_ref > 0.0 && noise_fill > 0.0)
    json.set("noise_fill_speedup", noise_fill / noise_ref);
  const double stream = collector.rate("BM_UsrpStream");
  const double stream_counts = collector.rate("BM_UsrpStreamCounts");
  if (stream > 0.0 && stream_counts > 0.0)
    json.set("stream_counts_speedup", stream_counts / stream);
  const double stream_jammed = collector.rate("BM_UsrpStreamJammed");
  const double detect_jammed = collector.rate("BM_UsrpDetectJammed");
  if (stream_jammed > 0.0 && detect_jammed > 0.0)
    json.set("detect_jammed_speedup", detect_jammed / stream_jammed);
  const double cfo_ref = collector.rate("BM_CfoPhasorReference");
  const double cfo_rotate = collector.rate("BM_CfoRotate");
  if (cfo_ref > 0.0 && cfo_rotate > 0.0)
    json.set("cfo_rotate_speedup", cfo_rotate / cfo_ref);
  const double resample_ref = collector.rate("BM_ResampleReference");
  const double resample = collector.rate("BM_Resample20to25");
  if (resample_ref > 0.0 && resample > 0.0)
    json.set("resample_speedup", resample / resample_ref);

  const char* path = std::getenv("RJF_BENCH_JSON");
  const std::string out = path ? path : "BENCH_fabric.json";
  if (!json.write_file(out))
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
  else
    std::printf("wrote %s\n", out.c_str());
  return 0;
}
