#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

/// \file stats.hpp
/// Streaming statistics accumulator for benchmark repetitions (the paper
/// reports averages over 30 application runs; the harness mirrors that).

namespace tarr {

/// Welford-style streaming accumulator: mean/variance/min/max in one pass.
class StatAccumulator {
 public:
  /// Fold one sample into the accumulator.
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::int64_t count() const { return n_; }
  double mean() const { return mean_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace tarr
