// Fixed-length running sums.
//
// The FPGA energy differentiator (paper Fig. 4) is built around a
// 32-sample moving sum implemented as y[n] = y[n-1] + x[n] - x[n-N].
// This header provides that exact recurrence for 64-bit integer energy
// values (fabric domain) and a float variant for host-side analysis.
#pragma once

#include <cstdint>
#include <vector>

namespace rjf::dsp {

template <typename T>
class MovingSum {
 public:
  explicit MovingSum(std::size_t length)
      : buffer_(length == 0 ? 1 : length, T{}) {}

  /// Push one value; returns the updated sum over the last `length` values.
  T push(T x) noexcept {
    sum_ += x - buffer_[pos_];
    buffer_[pos_] = x;
    if (++pos_ == buffer_.size()) pos_ = 0;  // no divide on the fabric path
    return sum_;
  }

  [[nodiscard]] T sum() const noexcept { return sum_; }
  [[nodiscard]] std::size_t length() const noexcept { return buffer_.size(); }

  void reset() noexcept {
    std::fill(buffer_.begin(), buffer_.end(), T{});
    sum_ = T{};
    pos_ = 0;
  }

 private:
  std::vector<T> buffer_;
  T sum_{};
  std::size_t pos_ = 0;
};

using MovingSumU64 = MovingSum<std::uint64_t>;
using MovingSumF = MovingSum<double>;

/// Fixed delay line (the Z^-64 block in Fig. 4).
template <typename T>
class DelayLine {
 public:
  explicit DelayLine(std::size_t delay) : buffer_(delay == 0 ? 1 : delay, T{}) {}

  /// Push x, get the value pushed `delay` steps ago.
  T push(T x) noexcept {
    const T out = buffer_[pos_];
    buffer_[pos_] = x;
    if (++pos_ == buffer_.size()) pos_ = 0;  // no divide on the fabric path
    return out;
  }

  [[nodiscard]] std::size_t delay() const noexcept { return buffer_.size(); }

  void reset() noexcept {
    std::fill(buffer_.begin(), buffer_.end(), T{});
    pos_ = 0;
  }

 private:
  std::vector<T> buffer_;
  std::size_t pos_ = 0;
};

}  // namespace rjf::dsp
