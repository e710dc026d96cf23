// End-to-end trial benchmark: shared types for the three workloads.
//
// The binary measures; trialbench/run.py builds it, checks the simulated
// statistics against the stored references and prints the result line.
// Every workload has two modes:
//
//   * untraced (--trace 0): set up several times (median = setup_s), then
//     repeat the workload's operation on the same seeded inputs until the
//     time budget is spent; host rates are medians over the repetitions;
//   * traced (--trace 1): replay the library's call sequence through the
//     public API with a steady_clock span around every layer call and
//     report the per-layer budget.
//
// Output is line-oriented on stdout (parsed by run.py):
//   fp <key> <value>            host/build fingerprint
//   metric <name> <unit> <value>
//   point <op> <label> <k> <n> <exact>   statistic k/n of operation <op>
//                                        of a repetition, plus an extra
//                                        exact count for bit-identity
//   ops <attempted> <bad> <good_reps>
//   guard <name> <0|1> <detail>     a consistency check that must hold
//   walls <s> <s> ...               wall time of each timed repetition
//   probes <s> <s> ...              host-speed probe time after each one
//   raw <name> <unit> <value>       set-up time as measured, and the
//                                   host_slowdown the probe measured
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace trialbench {

enum class Size { kFull, kMin };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string workdir = ".";  // scratch files (campaign shard stores)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// A simulated statistic of one operation (a sweep or campaign point, or
/// an iperf run): `k` successes out of `n` (detected frames / trials,
/// received datagrams / sent). `exact` is a further count that repeats
/// exactly run to run at a fixed build (total detector events, retries)
/// and only feeds the bit_identical flag.
struct Point {
  std::size_t op = 0;  // index of the operation within a repetition
  std::string label;
  std::uint64_t k = 0;
  std::uint64_t n = 0;
  std::uint64_t exact = 0;
  bool operator==(const Point&) const = default;
};

struct Guard {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<Point> points;   // the first good repetition's statistics
  std::uint64_t attempted = 0; // operations run (points x repetitions)
  std::uint64_t bad = 0;       // operations that threw, or whose repetition
                               // disagreed with the first one
  std::uint64_t good_reps = 0; // repetitions equal to the first one
  std::vector<double> walls;   // timed repetitions (untraced runs)
  std::vector<double> probes;  // host-speed probe after each repetition
  std::vector<Metric> raw;     // figures before the host-speed scaling
  std::vector<Guard> guards;

  void metric(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void guard(std::string name, bool ok, std::string detail) {
    guards.push_back({std::move(name), ok, std::move(detail)});
  }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-speed probe (probe.cpp): mean wall seconds of a fixed kernel mix
/// run on `threads` threads at once, and its time on the reference host
/// when nothing else contends for it. Timed figures are reported at that
/// reference speed.
[[nodiscard]] double probe_seconds(unsigned threads);
inline constexpr double kProbeReferenceS = 0.031;

Result run_ofdm_sweep(const Options& opt);
Result run_dsss_campaign(const Options& opt);
Result run_iperf_reactive(const Options& opt);

}  // namespace trialbench
