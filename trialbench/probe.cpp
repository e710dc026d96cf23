// Host-speed probe.
//
// The shared VM this benchmark was tuned on changes speed by up to a third
// over minutes, with no steal time reported: other tenants contend for the
// physical cores and caches. No run length absorbs that, and a run's
// median repetition then says more about the neighbours than about the
// program. So each timed repetition is followed by this probe, a fixed
// mix of three small kernels of the kinds a trial spends its time in:
// integer xor/popcount over a 256 KiB table (the fabric's bit-parallel
// correlator), Box-Muller Gaussian samples through libm (noise synthesis),
// and a double-precision phasor rotate (the CFO stage), run on as many
// threads as the workload uses. A repetition's time is scaled by
// kProbeReferenceS / (the probe's time right after it). See README.md,
// "Host-speed scaling", for how well that tracks the drift.
//
// The probe is benchmark code built with the benchmark's own flags, so no
// change to the libraries can move it.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "trialbench.h"

namespace trialbench {

namespace {

// Per-thread sinks keep the kernels' results live without the probe
// threads racing on a shared variable.
thread_local volatile std::uint64_t t_int_sink = 0;
thread_local volatile double t_float_sink = 0.0;

struct XorShift {
  std::uint64_t x;
  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

void popcount_kernel() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(1 << 15);
    XorShift rng{0x9E3779B97F4A7C15ull};
    for (auto& v : t) v = rng.next();
    return t;
  }();
  std::uint64_t acc = 0;
  for (unsigned pass = 0; pass < 512; ++pass)
    for (std::size_t i = 0; i + 1 < table.size(); ++i)
      acc += static_cast<std::uint64_t>(
                 std::popcount(table[i] ^ (table[i + 1] >> (pass & 7)))) *
             (i & 3);
  t_int_sink = acc;
}

void gaussian_kernel() {
  std::vector<float> buf(16384);
  XorShift rng{88172645463325252ull};
  double acc = 0.0;
  for (int pass = 0; pass < 30; ++pass)
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const double u1 = 1.0 - rng.uniform();
      const double u2 = rng.uniform();
      buf[i] = static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                                  std::cos(6.283185307179586 * u2));
      acc += buf[(i * 7) & (buf.size() - 1)];
    }
  t_float_sink = acc;
}

void rotate_kernel() {
  std::vector<float> re(4096, 0.5f);
  std::vector<float> im(4096, -0.25f);
  for (int pass = 0; pass < 40; ++pass) {
    const double w = 1e-3 * (pass + 1);
    for (std::size_t k = 0; k < re.size(); ++k) {
      const double ph =
          std::remainder(w * static_cast<double>(k), 6.283185307179586);
      const auto c = static_cast<float>(std::cos(ph));
      const auto s = static_cast<float>(std::sin(ph));
      const float a = re[k] * c - im[k] * s;
      im[k] = re[k] * s + im[k] * c;
      re[k] = a;
    }
  }
  t_float_sink = re[7] + im[11];
}

double run_kernels() {
  const Clock::time_point t0 = Clock::now();
  popcount_kernel();
  gaussian_kernel();
  rotate_kernel();
  return seconds_since(t0);
}

}  // namespace

double probe_seconds(unsigned threads) {
  std::vector<double> times(std::max(threads, 1u));
  {
    // jthreads join on every exit from this scope, exceptions included.
    std::vector<std::jthread> others;
    for (std::size_t i = 1; i < times.size(); ++i)
      others.emplace_back([&times, i] { times[i] = run_kernels(); });
    times[0] = run_kernels();
  }
  double sum = 0.0;
  for (const double t : times) sum += t;
  return sum / static_cast<double>(times.size());
}

}  // namespace trialbench
