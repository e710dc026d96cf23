#include "core/calibration.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "dsp/noise.h"
#include "fpga/dsp_core.h"

namespace rjf::core {
namespace {

constexpr int kMaxAcc = 384;  // 64 taps * max |ci|+|cq| = 6
constexpr int kDim = 2 * kMaxAcc + 1;

}  // namespace

XcorrNoiseModel::XcorrNoiseModel(const fpga::CorrelatorTemplate& tpl) {
  // Joint DP over (re, im). Each tap contributes one of four equally likely
  // (dre, dim) pairs depending on the two sign bits.
  //
  // One grid, advanced a row at a time. A tap moves mass by at most `step`
  // rows, so once source rows up to re have been spread, target rows up to
  // re - step have all their contributions and can replace their (already
  // spread) source rows. Each target cell receives the same additions in
  // the same order as a separate next-grid pass would give it, so the
  // result is bit-identical to that pass at half its memory: one 4.7 MB
  // grid plus a window of rows. Rows are separate 6 kB allocations rather
  // than one block: glibc serves a 4.7 MB block with mmap, and freeing an
  // mmapped block raises its mmap and arena-trim thresholds for the rest
  // of the process, after which per-thread arenas holding less free memory
  // than about twice that block are never given back.
  using Row = std::vector<double>;
  std::vector<Row> grid(kDim, Row(kDim, 0.0));
  std::vector<Row> pending(kDim);  // target rows in progress, else empty
  std::vector<Row> spare;          // zeroed rows for reuse
  grid[kMaxAcc][kMaxAcc] = 1.0;

  const auto index = [](int v) {
    return static_cast<std::size_t>(v + kMaxAcc);
  };
  const auto target_row = [&](int row) -> Row& {
    Row& r = pending[index(row)];
    if (r.empty()) {
      if (spare.empty()) {
        r.assign(kDim, 0.0);
      } else {
        r.swap(spare.back());
        spare.pop_back();
      }
    }
    return r;
  };
  // Rows below `done` hold this tap's output.
  int done = -kMaxAcc;
  const auto finish_through = [&](int last) {
    for (; done <= last; ++done) {
      Row& out = grid[index(done)];
      Row& in = pending[index(done)];
      if (in.empty()) {
        std::fill(out.begin(), out.end(), 0.0);  // nothing lands here
        continue;
      }
      out.swap(in);
      std::fill(in.begin(), in.end(), 0.0);
      spare.push_back(std::move(in));
    }
  };

  for (std::size_t k = 0; k < fpga::kCorrelatorLength; ++k) {
    const int ci = tpl.coef_i[k];
    const int cq = tpl.coef_q[k];
    // (si, sq) in {+1,-1}^2 -> (si*ci + sq*cq, sq*ci - si*cq)
    const int dre[4] = {ci + cq, ci - cq, -ci + cq, -ci - cq};
    const int dim[4] = {ci - cq, -ci - cq, ci + cq, -ci + cq};
    int step = 0;
    for (const int d : dre) step = std::max(step, std::abs(d));
    done = -kMaxAcc;
    const int reach = static_cast<int>(k + 1) * 6;
    for (int re = -reach; re <= reach; ++re) {
      const Row& src = grid[index(re)];
      for (int im = -reach; im <= reach; ++im) {
        const double p = src[index(im)];
        if (p == 0.0) continue;
        for (int c = 0; c < 4; ++c) {
          const int nre = std::clamp(re + dre[c], -kMaxAcc, kMaxAcc);
          const int nim = std::clamp(im + dim[c], -kMaxAcc, kMaxAcc);
          target_row(nre)[index(nim)] += 0.25 * p;
        }
      }
      finish_through(re - step);
    }
    finish_through(kMaxAcc);
  }

  // Collapse the joint distribution to the metric re^2 + im^2.
  std::map<std::uint32_t, double> pmf;
  for (int re = -kMaxAcc; re <= kMaxAcc; ++re)
    for (int im = -kMaxAcc; im <= kMaxAcc; ++im) {
      const double p = grid[index(re)][index(im)];
      if (p > 0.0)
        pmf[static_cast<std::uint32_t>(re * re + im * im)] += p;
    }

  metric_values_.reserve(pmf.size());
  survival_.reserve(pmf.size());
  double tail = 1.0;
  for (const auto& [metric, p] : pmf) {
    tail -= p;
    metric_values_.push_back(metric);
    survival_.push_back(std::max(tail, 0.0));
  }
}

double XcorrNoiseModel::exceedance_probability(std::uint32_t threshold) const {
  // survival_[k] = P(metric > metric_values_[k]); find the largest value
  // <= threshold.
  const auto it = std::upper_bound(metric_values_.begin(), metric_values_.end(),
                                   threshold);
  if (it == metric_values_.begin()) return 1.0;
  return survival_[static_cast<std::size_t>(it - metric_values_.begin()) - 1];
}

double XcorrNoiseModel::false_alarm_rate_per_s(std::uint32_t threshold,
                                               double cluster) const {
  return exceedance_probability(threshold) * fpga::kBasebandRateHz / cluster;
}

std::uint32_t XcorrNoiseModel::threshold_for_rate(double target_per_s,
                                                  double cluster) const {
  for (std::size_t k = 0; k < metric_values_.size(); ++k)
    if (false_alarm_rate_per_s(metric_values_[k], cluster) <= target_per_s)
      return metric_values_[k];
  return metric_values_.empty() ? 0xFFFFFFFFu : metric_values_.back();
}

std::uint64_t count_noise_triggers(const fpga::CorrelatorTemplate& tpl,
                                   std::uint32_t threshold, double seconds,
                                   std::uint64_t seed) {
  fpga::CrossCorrelator corr;
  corr.set_coefficients(tpl.coef_i, tpl.coef_q);
  corr.set_threshold(threshold);
  const auto n = static_cast<std::uint64_t>(seconds * fpga::kBasebandRateHz);
  dsp::NoiseSource noise(0.01, seed);
  std::uint64_t triggers = 0;
  bool prev = false;
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto out = corr.step(dsp::to_iq16(noise.sample()));
    if (out.trigger && !prev) ++triggers;
    prev = out.trigger;
  }
  return triggers;
}

}  // namespace rjf::core
