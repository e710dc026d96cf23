// trialbench: end-to-end trial benchmark binary. Run it through
// trialbench/run.py, which builds it, checks the statistics it prints
// against the stored references and prints the result line.
//
//   trialbench --workload <ofdm_sweep|dsss_campaign|iperf_reactive>
//              --seed N --seconds S --trace 0|1 [--size full|min]
//              [--workdir DIR]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "dsp/simd/dispatch.h"
#include "trialbench.h"

namespace {

using trialbench::Options;
using trialbench::Result;

int usage(const char* why) {
  std::fprintf(stderr,
               "trialbench: %s\nusage: trialbench --workload W --seed N "
               "--seconds S --trace 0|1 [--size full|min] [--workdir DIR]\n",
               why);
  return 2;
}

void print_fingerprint() {
  namespace simd = rjf::dsp::simd;
  const char* veto = std::getenv("RJF_DISABLE_SIMD");
  std::printf("fp nproc %ld\n", ::sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("fp hardware_concurrency %u\n",
              std::thread::hardware_concurrency());
  std::printf("fp compiled_isa %s\n", simd::isa_name(simd::compiled_isa()));
  std::printf("fp active_isa %s\n", simd::isa_name(simd::active_isa()));
  std::printf("fp simd_build %s\n", TRIALBENCH_SIMD_ENABLED ? "on" : "off");
  std::printf("fp rjf_disable_simd %s\n",
              veto != nullptr && veto[0] != '\0' ? "set" : "unset");
  std::printf("fp compiler %s\n", TRIALBENCH_COMPILER);
  std::printf("fp build_type %s\n", TRIALBENCH_BUILD_TYPE);
}

/// Peak resident memory of this program image. getrusage's ru_maxrss is
/// not used: across exec it keeps the peak of the process that launched
/// this one, and run.py's Python interpreter can be the larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--size") {
      if (std::strcmp(value, "min") == 0) opt.size = trialbench::Size::kMin;
      else if (std::strcmp(value, "full") != 0) return usage("bad --size");
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  Result r;
  try {
    if (opt.workload == "ofdm_sweep") r = trialbench::run_ofdm_sweep(opt);
    else if (opt.workload == "dsss_campaign")
      r = trialbench::run_dsss_campaign(opt);
    else if (opt.workload == "iperf_reactive")
      r = trialbench::run_iperf_reactive(opt);
    else return usage(("unknown workload " + opt.workload).c_str());
    if (!opt.trace) r.metric("peak_rss_mb", "MB", peak_rss_mb());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trialbench: %s\n", e.what());
    return 1;
  }

  print_fingerprint();
  for (const auto& m : r.metrics)
    std::printf("metric %s %s %.17g\n", m.name.c_str(), m.unit.c_str(),
                m.value);
  for (const auto& m : r.raw)
    std::printf("raw %s %s %.17g\n", m.name.c_str(), m.unit.c_str(), m.value);
  for (const auto& p : r.points)
    std::printf("point %zu %s %llu %llu %llu\n", p.op, p.label.c_str(),
                static_cast<unsigned long long>(p.k),
                static_cast<unsigned long long>(p.n),
                static_cast<unsigned long long>(p.exact));
  std::printf("ops %llu %llu %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.bad),
              static_cast<unsigned long long>(r.good_reps));
  for (const auto& [tag, values] :
       {std::pair{"walls", &r.walls}, std::pair{"probes", &r.probes}}) {
    if (values->empty()) continue;
    std::printf("%s", tag);
    for (const double v : *values) std::printf(" %.9g", v);
    std::printf("\n");
  }
  for (const auto& g : r.guards)
    std::printf("guard %s %d %s\n", g.name.c_str(), g.ok ? 1 : 0,
                g.detail.c_str());
  return 0;
}
