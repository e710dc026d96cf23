// The three workloads. Why each exists, and what each layer metric should
// and should not move, is in trialbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>

#include "core/campaign.h"
#include "core/presets.h"
#include "core/scenario.h"
#include "dsp/rng.h"
#include "net/mac_frame.h"
#include "net/waveform_cache.h"
#include "net/wifi_network.h"
#include "obs/telemetry.h"
#include "phy80211/rates.h"
#include "replay.h"
#include "trialbench.h"

namespace trialbench {

namespace rc = rjf::core;
namespace dsp = rjf::dsp;
namespace net = rjf::net;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Substream for inputs derived from the command-line seed (the engines'
// own trial streams derive from the seed itself).
constexpr std::uint64_t kPsduStream = 0x5053'4455;

constexpr double kUptimeS = 1e-4;  // 0.1 ms jam bursts
constexpr std::uint8_t kScramblerSeed = 0x5D;
constexpr std::size_t kPsduBytes = 310;

// A repetition loop needs a few samples for its median even when one
// repetition outlasts the time budget.
constexpr int kMinRepeats = 3;

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 9;

struct Timed {
  std::vector<double> walls;   // good repetitions
  std::vector<double> probes;  // probe_seconds() right after each one
  /// Median probe time over kProbeReferenceS: how much slower than the
  /// reference the host ran during the timed loop.
  double slowdown = 1.0;
};

/// Repeat `op` until `seconds` have passed, at least kMinRepeats times,
/// with the host-speed probe on the workload's `threads` after each
/// repetition (probe.cpp). `op` returns false when its repetition threw;
/// only good repetitions count.
template <typename Op>
Timed repeat_for(double seconds, unsigned threads, Op&& op) {
  Timed t;
  const Clock::time_point begin = Clock::now();
  int reps = 0;
  while (reps < kMinRepeats || seconds_since(begin) < seconds) {
    const Clock::time_point t0 = Clock::now();
    const bool good = op();
    const double wall = seconds_since(t0);
    const double probe = probe_seconds(threads);
    if (good) {
      t.walls.push_back(wall);
      t.probes.push_back(probe);
    }
    ++reps;
  }
  t.slowdown = median(t.probes) / kProbeReferenceS;
  return t;
}

/// Median over repetitions of work / wall, each repetition scaled to the
/// probe's reference speed.
double median_rate(const Timed& t, double work) {
  std::vector<double> r;
  for (std::size_t i = 0; i < t.walls.size(); ++i)
    r.push_back(work / t.walls[i] * t.probes[i] / kProbeReferenceS);
  return median(r);
}

struct SetupTime {
  double scaled = 0.0;    // median, at the probe's reference speed
  double measured = 0.0;  // median as measured
};

/// Set-up repeated kSetupRepeats times, each followed by the probe.
/// `setup_once` returns its own wall seconds.
template <typename Fn>
SetupTime time_setups(Fn&& setup_once) {
  std::vector<double> scaled;
  std::vector<double> measured;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double s = setup_once();
    measured.push_back(s);
    scaled.push_back(s * kProbeReferenceS / probe_seconds(1));
  }
  return {median(scaled), median(measured)};
}

/// The end-to-end timed metrics, already at the reference speed, plus the
/// figures as measured and the host slowdown for the printout.
void report_timed(Result& r, const Timed& t, double trials_per_s, double msps,
                  double sim_s_per_s, const SetupTime& setup) {
  r.walls = t.walls;
  r.probes = t.probes;
  r.metric("trials_per_s", "1/s", trials_per_s);
  r.metric("msps", "Msample/s", msps);
  r.metric("sim_s_per_s", "s/s", sim_s_per_s);
  r.metric("setup_s", "s", setup.scaled);
  r.raw.push_back({"setup_s", "s", setup.measured});
  r.raw.push_back({"host_slowdown", "ratio", t.slowdown});
}

/// Runs one repetition of an operation group and keeps the bookkeeping
/// run.py needs: the first good repetition's points, how many operations
/// were attempted, and how many threw or disagreed with that first one.
struct RepBook {
  Result& r;
  template <typename Fn>
  bool run(std::size_t ops, Fn&& fn) {
    r.attempted += ops;
    std::vector<Point> pts;
    try {
      pts = fn();
    } catch (const std::exception& e) {
      r.bad += ops;
      r.guard("no_exceptions", false, e.what());
      return false;
    }
    if (r.points.empty()) {
      r.points = std::move(pts);
    } else if (pts != r.points) {
      r.bad += ops;
      r.guard("repetitions_identical", false,
              "a repetition's statistics differ from the first one's");
      return false;
    }
    ++r.good_reps;
    return true;
  }
};

// ---------------------------------------------------------------------------
// Detection workloads (ofdm_sweep, dsss_campaign).

struct DetectionSpec {
  const char* target = "";
  std::vector<std::size_t> rate_indices;
  std::vector<double> snrs_db;
  std::size_t trials = 0;  // per point
  unsigned threads = 1;
  std::uint64_t seed = 0;
  std::vector<std::uint8_t> psdu;

  // Points are rate-major, SNR-minor; point p's trials derive from
  // derive_seed(seed, p) in both engines.
  [[nodiscard]] std::size_t num_points() const {
    return rate_indices.size() * snrs_db.size();
  }
  [[nodiscard]] std::size_t rate_of(std::size_t p) const {
    return rate_indices[p / snrs_db.size()];
  }
  [[nodiscard]] double snr_of(std::size_t p) const {
    return snrs_db[p % snrs_db.size()];
  }
  [[nodiscard]] rc::DetectionRunConfig point_config(
      const rc::ProtocolTarget& t, std::size_t p) const {
    rc::DetectionRunConfig config;
    config.snr_db = snr_of(p);
    config.num_frames = trials;
    config.seed = dsp::derive_seed(seed, p);
    config.tx_rate_hz = t.native_rate_hz;
    return config;
  }
  [[nodiscard]] std::string label(const rc::ProtocolTarget& t,
                                  std::size_t p) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%gMbps_%+gdB", t.rates[rate_of(p)].mbps,
                  snr_of(p));
    return buf;
  }
};

struct SetupSample {
  double total_s = 0.0;
  double jammer_s = 0.0;
};

/// The work an engine does before its first detection trial: registry
/// lookup, preset threshold calibration, frame synthesis, the first
/// point's trial plan and the first shard's jammer.
SetupSample time_detection_setup(const DetectionSpec& spec) {
  SetupSample s;
  const Clock::time_point t0 = Clock::now();
  const rc::ProtocolTarget& target = rc::target_or_throw(spec.target);
  const rc::JammerConfig preset = rc::target_reactive_preset(target, kUptimeS);
  const dsp::cvec frame =
      target.make_frame(spec.rate_of(0), spec.psdu, kScramblerSeed);
  const rc::DetectionTrialPlan plan = rc::prepare_detection_trials(
      frame, rc::DetectorTap::kXcorr, spec.point_config(target, 0));
  const Clock::time_point t1 = Clock::now();
  const rc::ReactiveJammer jammer(preset);
  s.total_s = seconds_since(t0);
  s.jammer_s = seconds_since(t1);
  return s;
}

/// Every point's plan as the engines build it, with the mean build time.
std::vector<rc::DetectionTrialPlan> build_plans(const DetectionSpec& spec,
                                                double* mean_build_s) {
  const rc::ProtocolTarget& target = rc::target_or_throw(spec.target);
  std::vector<dsp::cvec> frames;
  for (const std::size_t r : spec.rate_indices)
    frames.push_back(target.make_frame(r, spec.psdu, kScramblerSeed));
  std::vector<rc::DetectionTrialPlan> plans;
  double build_s = 0.0;
  for (std::size_t p = 0; p < spec.num_points(); ++p) {
    const Clock::time_point t0 = Clock::now();
    plans.push_back(rc::prepare_detection_trials(
        frames[p / spec.snrs_db.size()], rc::DetectorTap::kXcorr,
        spec.point_config(target, p)));
    build_s += seconds_since(t0);
  }
  if (mean_build_s != nullptr)
    *mean_build_s = build_s / static_cast<double>(plans.size());
  return plans;
}

/// Capture samples (25 MSPS domain) that trials [0, trials) of `plan`
/// stream, replaying only each trial's frame-variant draw.
std::uint64_t capture_samples(const rc::DetectionTrialPlan& plan,
                              std::size_t trials) {
  std::uint64_t n = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    dsp::Xoshiro256 rng(dsp::derive_seed(plan.seed, t));
    (void)rng.next();
    n += plan.lead_in + plan.tail +
         plan.variants[rng.uniform_int(plan.variants.size())].size();
  }
  return n;
}

/// One engine invocation over the whole grid; returns per-point counts.
using Engine = std::function<std::vector<Point>(std::size_t rep)>;

/// End-to-end metrics of a detection workload: set-up, then repetitions
/// of the engine over the same seeded grid until the budget is spent.
void measure_detection(const DetectionSpec& spec, const Options& opt,
                       const Engine& engine, Result& r) {
  const SetupTime setup =
      time_setups([&] { return time_detection_setup(spec).total_s; });

  RepBook book{r};
  std::size_t rep = 0;
  const Timed t = repeat_for(opt.seconds, spec.threads, [&] {
    return book.run(spec.num_points(), [&] { return engine(rep++); });
  });

  const std::vector<rc::DetectionTrialPlan> plans = build_plans(spec, nullptr);
  std::uint64_t samples = 0;
  for (const auto& plan : plans) samples += capture_samples(plan, spec.trials);
  const double trials =
      static_cast<double>(spec.num_points() * spec.trials);
  const double msps = median_rate(t, static_cast<double>(samples)) / 1e6;
  report_timed(r, t, median_rate(t, trials), msps,
               msps * 1e6 / rjf::fpga::kBasebandRateHz, setup);
}

/// Per-layer budget of a detection workload from the traced replay of
/// every trial of the grid, checked against one engine invocation.
void trace_detection(const DetectionSpec& spec, const rc::JammerConfig& preset,
                     const Engine& engine, Result& r) {
  std::vector<double> jammer_us;
  for (int i = 0; i < kSetupRepeats; ++i)
    jammer_us.push_back(time_detection_setup(spec).jammer_s * 1e6);

  double plan_build_s = 0.0;
  const std::vector<rc::DetectionTrialPlan> plans =
      build_plans(spec, &plan_build_s);
  const rc::ProtocolTarget& target = rc::target_or_throw(spec.target);

  RepBook book{r};
  book.run(spec.num_points(), [&] { return engine(0); });

  TrialReplay replay(preset);
  StageBudget b;
  std::vector<Point> replayed;
  std::vector<double> probes;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    Point pt{p, spec.label(target, p), 0, spec.trials, 0};
    for (std::size_t t = 0; t < spec.trials; ++t) {
      const std::uint64_t events = replay.run(plans[p], t, b).events;
      pt.exact += events;
      if (events > 0) ++pt.k;
    }
    replayed.push_back(pt);
    probes.push_back(probe_seconds(1));
  }
  // Times below are at the probe's reference speed, like the end-to-end
  // figures; shares and ratios need no scaling.
  const double speed = kProbeReferenceS / median(probes);
  r.guard("mirror_identity", b.mismatches == 0,
          b.mismatches == 0
              ? std::to_string(b.trials) + " traced trials match the library"
              : std::to_string(b.mismatches) + " mismatches; first: " +
                    b.first_mismatch);
  r.guard("replay_matches_engine", replayed == r.points,
          "per-point counts of the replayed grid vs the engine run");

  const double ns = 1e9 * speed / static_cast<double>(b.samples);
  const double stages =
      b.noise + b.cfo + b.reset + b.frontend + b.adc + b.stream;
  r.metric("dsp.noise_ns_per_sample", "ns", b.noise * ns);
  r.metric("dsp.noise_share", "fraction", b.noise / b.traced_trial);
  r.metric("core.cfo_ns_per_sample", "ns", b.cfo * ns);
  r.metric("core.cfo_share", "fraction", b.cfo / b.traced_trial);
  r.metric("core.reset_us", "us",
           b.reset * 1e6 * speed / static_cast<double>(b.trials));
  r.metric("radio.frontend_ns_per_sample", "ns", b.frontend * ns);
  r.metric("radio.adc_ns_per_sample", "ns", b.adc * ns);
  r.metric("radio.stream_ns_per_sample", "ns", b.stream * ns);
  r.metric("radio.stream_share", "fraction", b.stream / b.traced_trial);
  r.metric("fpga.run_block_ns_per_sample", "ns", b.run_block * ns);
  r.metric("fpga.run_block_share", "fraction", b.run_block / b.traced_trial);
  r.metric("radio.self_ns_per_sample", "ns", (b.stream - b.run_block) * ns);
  r.metric("radio.unread_bytes_per_trial", "bytes",
           static_cast<double>(b.stream_alloc_bytes) /
               static_cast<double>(b.trials));
  r.metric("core.trial_us_p50", "us",
           percentile(b.library_trial_us, 0.50) * speed);
  r.metric("core.trial_us_p99", "us",
           percentile(b.library_trial_us, 0.99) * speed);
  r.metric("fpga.detections_per_trial", "count",
           static_cast<double>(b.events) / static_cast<double>(b.trials));
  r.metric("fpga.jam_triggers", "count", static_cast<double>(b.jam_triggers));
  r.metric("core.plan_build_ms", "ms", plan_build_s * 1e3 * speed);
  r.metric("core.jammer_build_us", "us", median(jammer_us) * speed);
  r.metric("obs.traced_slowdown", "ratio", b.telemetry_trial / b.library_trial);
  r.metric("bench.span_coverage", "fraction", stages / b.traced_trial);
  r.metric("bench.trace_overhead", "ratio", b.traced_trial / b.library_trial);
  r.metric("bench.traced_trials", "count", static_cast<double>(b.trials));
  r.metric("bench.host_slowdown", "ratio", 1.0 / speed);
}

std::vector<std::uint8_t> seeded_psdu(std::uint64_t seed) {
  dsp::Xoshiro256 rng(dsp::derive_seed(seed, kPsduStream));
  std::vector<std::uint8_t> psdu(kPsduBytes);
  for (auto& byte : psdu) byte = static_cast<std::uint8_t>(rng.next() >> 56);
  return psdu;
}

Point detection_point(std::size_t op, std::string label,
                      const rc::DetectionRunResult& res) {
  return Point{op, std::move(label), res.frames_detected, res.frames_sent,
               res.total_detections};
}

}  // namespace

Result run_ofdm_sweep(const Options& opt) {
  DetectionSpec spec;
  spec.target = "wifi_ofdm";
  const rc::ProtocolTarget& target = rc::target_or_throw(spec.target);
  spec.rate_indices = {target.default_rate_index};  // 54 Mb/s
  spec.snrs_db = {-6.0, -3.0, 0.0, 3.0, 6.0};
  spec.trials = opt.size == Size::kMin ? 20 : 400;
  spec.threads = 1;
  spec.seed = opt.seed;
  spec.psdu = seeded_psdu(opt.seed);
  const rc::JammerConfig preset = rc::target_reactive_preset(target, kUptimeS);

  const Engine engine = [&](std::size_t) {
    rc::SweepConfig sweep;
    sweep.trials_per_point = spec.trials;
    sweep.threads = spec.threads;
    sweep.seed = spec.seed;
    const rc::SweepReport report = rc::run_target_detection_sweep(
        preset, target, spec.rate_indices[0], spec.psdu,
        rc::DetectorTap::kXcorr, rc::DetectionRunConfig{}, spec.snrs_db, sweep);
    std::vector<Point> pts;
    for (std::size_t p = 0; p < report.points.size(); ++p)
      pts.push_back(detection_point(p, spec.label(target, p),
                                    report.points[p].result));
    return pts;
  };

  Result r;
  if (opt.trace) trace_detection(spec, preset, engine, r);
  else measure_detection(spec, opt, engine, r);
  return r;
}

Result run_dsss_campaign(const Options& opt) {
  DetectionSpec spec;
  spec.target = "wifi_dsss";
  const rc::ProtocolTarget& target = rc::target_or_throw(spec.target);
  spec.rate_indices = {0, 1, 2, 3};  // 1, 2, 5.5, 11 Mb/s
  spec.snrs_db = {-6.0, 0.0, 6.0};
  spec.trials = opt.size == Size::kMin ? 4 : 48;
  spec.threads = 2;
  spec.seed = opt.seed;
  // run_campaign synthesises psdu_bytes of one fill byte.
  const auto fill =
      static_cast<std::uint8_t>(dsp::derive_seed(opt.seed, kPsduStream) >> 56);
  spec.psdu.assign(kPsduBytes, fill);
  const rc::JammerConfig preset = rc::target_reactive_preset(target, kUptimeS);

  struct StoreStats {
    std::size_t shards = 0;
    std::size_t plans_built = 0;
    std::uintmax_t store_bytes = 0;
    double wall_s = 0.0;
  };
  // One campaign over a fresh shard store, removed afterwards.
  const auto campaign = [&](std::size_t rep, unsigned threads,
                            StoreStats* stats) {
    rc::CampaignSpec cs;
    cs.grid.rate_indices = spec.rate_indices;
    cs.grid.fault_scales = {0.0};
    cs.grid.snrs_db = spec.snrs_db;
    cs.grid.trials_per_point = spec.trials;
    cs.jammer = preset;
    cs.target = spec.target;
    cs.psdu_bytes = kPsduBytes;
    cs.psdu_fill = fill;
    cs.scrambler_seed = kScramblerSeed;
    cs.seed = spec.seed;
    cs.threads = threads;
    const std::filesystem::path store =
        std::filesystem::path(opt.workdir) /
        ("campaign-" + std::to_string(::getpid()) + "-" +
         std::to_string(rep) + ".store");
    std::filesystem::remove(store);
    const Clock::time_point t0 = Clock::now();
    const rc::CampaignReport report = rc::run_campaign(cs, store.string());
    const double wall = seconds_since(t0);
    if (stats != nullptr) {
      stats->shards = report.shards_total;
      stats->plans_built = report.plans_built;
      stats->store_bytes = std::filesystem::file_size(store);
      stats->wall_s = wall;
    }
    std::filesystem::remove(store);
    if (!report.complete || report.trials_replayed != 0)
      throw std::runtime_error("campaign did not complete cleanly");
    std::vector<Point> pts;
    for (std::size_t p = 0; p < report.points.size(); ++p)
      pts.push_back(detection_point(p, spec.label(target, p),
                                    report.points[p].result));
    return pts;
  };

  Result r;
  if (!opt.trace) {
    measure_detection(
        spec, opt,
        [&](std::size_t rep) { return campaign(rep, spec.threads, nullptr); },
        r);
    return r;
  }
  StoreStats one;
  StoreStats two;
  trace_detection(
      spec, preset,
      [&](std::size_t) { return campaign(0, spec.threads, &two); }, r);
  RepBook book{r};
  book.run(spec.num_points(), [&] { return campaign(1, 1, &one); });
  r.metric("core.campaign.parallel_efficiency", "fraction",
           one.wall_s / two.wall_s / spec.threads);
  r.metric("core.campaign.shards", "count", static_cast<double>(two.shards));
  r.metric("core.campaign.plans_built", "count",
           static_cast<double>(two.plans_built));
  r.metric("core.campaign.store_bytes", "bytes",
           static_cast<double>(two.store_bytes));
  return r;
}

// ---------------------------------------------------------------------------
// iperf_reactive.

namespace {

constexpr double kJammerTxPower = 1e-3;

/// Independent iperf runs per repetition. One run's cost per simulated
/// second depends on its seed (ARF rate trajectory, retries, jam hits);
/// averaging several seeded runs keeps a repetition's work steady.
std::size_t iperf_runs(const Options& opt) {
  return opt.size == Size::kMin ? 2 : 4;
}

/// Run `i` of a repetition: the paper's 0.1 ms reactive jammer at SIR
/// ~17 dB against a 54 Mb/s-offered UDP upload.
net::WifiNetworkConfig iperf_config(const Options& opt, std::size_t i) {
  net::WifiNetworkConfig config;
  config.iperf.duration_s = opt.size == Size::kMin ? 0.01 : 0.1;
  config.jammer = rc::energy_reactive_preset(kUptimeS, 10.0);
  config.jammer_tx_power = kJammerTxPower;
  config.seed = dsp::derive_seed(opt.seed, i);
  return config;
}

/// Cold set-up to the first exchange: personality, rig, and every
/// waveform the rig may draw from the process-wide WaveformCache (the data
/// frame at each rate ARF may pick, and the ACK), built into an empty
/// cache. Which of the eight rates a seed's runs visit varies by seed;
/// building all of them keeps set-up the same work at every seed.
double time_iperf_setup(const Options& opt) {
  net::WaveformCache& cache = net::WaveformCache::instance();
  cache.clear();
  const Clock::time_point t0 = Clock::now();
  const net::WifiNetworkConfig config = iperf_config(opt, 0);
  const net::WifiNetworkSim sim(config);
  net::MacFrame data;
  data.type = net::FrameType::kData;
  data.src = 2;
  data.dst = 1;
  data.payload.assign(config.iperf.datagram_bytes, 0x42);
  const net::Bytes data_psdu = net::serialize(data);
  for (const rjf::phy80211::Rate rate : rjf::phy80211::all_rates())
    (void)cache.get_or_build(data_psdu, rate, kScramblerSeed,
                             config.client_tx_power, 0);
  net::MacFrame ack;
  ack.type = net::FrameType::kAck;
  ack.src = 1;
  ack.dst = 2;
  (void)cache.get_or_build(net::serialize(ack), config.timing.ack_rate, 0x2B,
                           config.client_tx_power, 0);
  return seconds_since(t0);
}

/// Run `op`'s statistics: datagrams received of those sent, and the same
/// received count over data frames put on the air (retries included),
/// which is what jamming moves.
void add_iperf_points(std::size_t op, const net::WifiRunResult& run,
                      std::vector<Point>& pts) {
  const std::string run_label = "run" + std::to_string(op) + ".";
  pts.push_back(Point{op, run_label + "datagrams", run.report.datagrams_received,
                      run.report.datagrams_sent, run.jam_triggers});
  pts.push_back(Point{op, run_label + "frames", run.report.datagrams_received,
                      run.data_frames_sent, run.retries});
}

/// Totals over one repetition's runs.
struct IperfTotals {
  std::uint64_t data_frames_sent = 0;
  std::uint64_t retries = 0;
  std::uint64_t jam_triggers = 0;
  std::uint64_t stream_samples = 0;  // telemetry-attached runs only
  double stream_wall_s = 0.0;        // telemetry-attached runs only
  double sim_s = 0.0;
};

/// One repetition: every run of the seed, optionally with telemetry
/// attached (counters only, as the sweep benches attach it).
std::vector<Point> iperf_repetition(const Options& opt, bool telemetry_on,
                                    IperfTotals& totals) {
  totals = IperfTotals{};
  std::vector<Point> pts;
  for (std::size_t i = 0; i < iperf_runs(opt); ++i) {
    const net::WifiNetworkConfig config = iperf_config(opt, i);
    net::WifiNetworkSim sim(config);
    std::optional<rjf::obs::Telemetry> telemetry;
    if (telemetry_on) {
      rjf::obs::TelemetryConfig tc;
      tc.probe_enabled = false;
      telemetry.emplace(tc);
      sim.attach_telemetry(&*telemetry);
    }
    const net::WifiRunResult run = sim.run();
    if (telemetry.has_value()) {
      sim.attach_telemetry(nullptr);
      telemetry->flush();
      const rjf::obs::MetricsRegistry& m = telemetry->metrics();
      totals.stream_samples += m.counter_value("stream_samples");
      totals.stream_wall_s +=
          static_cast<double>(m.counter_value("stream_wall_ns")) * 1e-9;
    }
    totals.data_frames_sent += run.data_frames_sent;
    totals.retries += run.retries;
    totals.jam_triggers += run.jam_triggers;
    totals.sim_s += config.iperf.duration_s;
    add_iperf_points(i, run, pts);
  }
  return pts;
}

}  // namespace

Result run_iperf_reactive(const Options& opt) {
  const SetupTime setup = time_setups([&] { return time_iperf_setup(opt); });
  net::WaveformCache& cache = net::WaveformCache::instance();
  const std::size_t runs = iperf_runs(opt);

  Result r;
  RepBook book{r};
  IperfTotals plain;
  const auto untraced = [&] {
    return book.run(runs, [&] { return iperf_repetition(opt, false, plain); });
  };
  // A telemetry-attached repetition, outside any timed loop.
  IperfTotals traced;
  const auto telemetry_rep = [&] {
    const Clock::time_point t0 = Clock::now();
    book.run(runs, [&] { return iperf_repetition(opt, true, traced); });
    return seconds_since(t0);
  };

  // Set-up builds the cache keys by hand; if the rig draws a waveform set-up
  // did not build, its cold fill lands in a timed repetition instead.
  const std::uint64_t misses0 = cache.misses();
  const auto guard_warm = [&] {
    const std::uint64_t misses = cache.misses() - misses0;
    r.guard("waveform_cache_warm", misses == 0,
            std::to_string(misses) + " cache misses after set-up");
    return misses;
  };

  if (!opt.trace) {
    const Timed t = repeat_for(opt.seconds, 1, untraced);
    // The samples the jammer streamed are a deterministic count of the
    // seeded runs; read them from telemetry on one further repetition.
    (void)telemetry_rep();
    (void)guard_warm();
    report_timed(
        r, t, median_rate(t, static_cast<double>(plain.data_frames_sent)),
        median_rate(t, static_cast<double>(traced.stream_samples)) / 1e6,
        median_rate(t, plain.sim_s), setup);
    return r;
  }

  // Traced: alternate untraced and telemetry-attached repetitions.
  std::vector<double> jammer_us;
  const rc::JammerConfig preset = *iperf_config(opt, 0).jammer;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const rc::ReactiveJammer jammer(preset);
    jammer_us.push_back(seconds_since(t0) * 1e6);
  }
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::vector<double> stream_shares;
  std::vector<double> probes;
  for (int i = 0; i < kMinRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (untraced()) plain_walls.push_back(seconds_since(t0));
    const double wall = telemetry_rep();
    traced_walls.push_back(wall);
    stream_shares.push_back(traced.stream_wall_s / wall);
    probes.push_back(probe_seconds(1));
  }
  const double speed = kProbeReferenceS / median(probes);
  r.metric("net.exchange_us", "us",
           median(plain_walls) * 1e6 * speed /
               static_cast<double>(plain.data_frames_sent));
  r.metric("net.frames_sent", "count",
           static_cast<double>(plain.data_frames_sent));
  r.metric("net.retries", "count", static_cast<double>(plain.retries));
  r.metric("fpga.jam_triggers", "count",
           static_cast<double>(plain.jam_triggers));
  r.metric("net.waveform_cache_misses", "count",
           static_cast<double>(guard_warm()));
  r.metric("radio.stream_share", "fraction", median(stream_shares));
  r.metric("obs.traced_slowdown", "ratio",
           median(traced_walls) / median(plain_walls));
  r.metric("core.jammer_build_us", "us", median(jammer_us) * speed);
  r.metric("bench.host_slowdown", "ratio", 1.0 / speed);
  return r;
}

}  // namespace trialbench
