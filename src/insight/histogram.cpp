#include "insight/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tarr::insight {

Histogram::Histogram(int subbucket_bits) : subbucket_bits_(subbucket_bits) {
  TARR_REQUIRE(subbucket_bits >= 0 && subbucket_bits <= 10,
               "Histogram: subbucket_bits must be in [0, 10]");
  subbuckets_ = 1 << subbucket_bits_;
}

void Histogram::record_n(double value, long long n) {
  TARR_REQUIRE(std::isfinite(value),
               "Histogram: refusing to record a non-finite value");
  TARR_REQUIRE(value >= 0.0,
               "Histogram: refusing to record a negative value");
  TARR_REQUIRE(n >= 1, "Histogram: record count must be >= 1");
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  count_ += n;
  if (value == 0.0) {
    zero_count_ += n;
  } else {
    counts_[index_of(value)] += n;
  }
}

double Histogram::min() const { return count_ == 0 ? 0.0 : min_; }
double Histogram::max() const { return count_ == 0 ? 0.0 : max_; }

double Histogram::approx_sum() const {
  // Bucket-order sum of count * representative: a pure function of the
  // counts map, so two histograms with equal state report equal sums no
  // matter the order their samples arrived in.
  double sum = 0.0;  // zero bucket contributes 0
  for (const auto& [idx, n] : counts_)
    sum += static_cast<double>(n) * lower_bound(idx);
  return sum;
}

double Histogram::quantile(double q) const {
  TARR_REQUIRE(q >= 0.0 && q <= 1.0, "Histogram::quantile: q outside [0, 1]");
  if (count_ == 0) return 0.0;
  // Nearest rank: the rank-th smallest sample, rank = ceil(q * N), with
  // q = 0 mapping to the smallest sample.
  const long long rank = std::max<long long>(
      1, static_cast<long long>(
             std::ceil(q * static_cast<double>(count_))));
  long long seen = zero_count_;
  if (rank <= seen) return 0.0;
  for (const auto& [idx, n] : counts_) {
    seen += n;
    if (rank <= seen) return lower_bound(idx);
  }
  // Unreachable when counts are consistent; return the top bucket's lower
  // bound defensively.
  return counts_.empty() ? 0.0 : lower_bound(counts_.rbegin()->first);
}

int Histogram::index_of(double value) const {
  TARR_REQUIRE(value > 0.0 && std::isfinite(value),
               "Histogram::index_of: value must be positive and finite");
  int exp = 0;
  const double m = std::frexp(value, &exp);  // value = m * 2^exp, m in [.5,1)
  // Scale the mantissa into [0, 1) over the binade and cut it into
  // sub-buckets; the multiply is exact enough that values lying on a
  // sub-bucket boundary land in the bucket they open.
  const double frac = m * 2.0 - 1.0;  // [0, 1)
  int sub = static_cast<int>(frac * static_cast<double>(subbuckets_));
  if (sub >= subbuckets_) sub = subbuckets_ - 1;  // guard frac -> 1.0 rounding
  return exp * subbuckets_ + sub;
}

double Histogram::lower_bound(int index) const {
  // Floor division so negative exponents (values < 1) resolve correctly.
  int exp = index / subbuckets_;
  int sub = index % subbuckets_;
  if (sub < 0) {
    sub += subbuckets_;
    exp -= 1;
  }
  // 1 + sub/subbuckets is a dyadic rational (subbuckets is a power of two),
  // so the boundary is an exact double.
  return std::ldexp(1.0 + static_cast<double>(sub) /
                              static_cast<double>(subbuckets_),
                    exp - 1);
}

std::vector<Histogram::Bucket> Histogram::buckets() const {
  std::vector<Bucket> out;
  out.reserve(counts_.size());
  for (const auto& [idx, n] : counts_)
    out.push_back({idx, lower_bound(idx), upper_bound(idx), n});
  return out;
}

bool Histogram::operator==(const Histogram& other) const {
  if (subbucket_bits_ != other.subbucket_bits_ || count_ != other.count_ ||
      zero_count_ != other.zero_count_ || counts_ != other.counts_)
    return false;
  if (count_ == 0) return true;
  return min_ == other.min_ && max_ == other.max_;
}

double exact_quantile(std::vector<double> values, double q) {
  TARR_REQUIRE(q >= 0.0 && q <= 1.0, "exact_quantile: q outside [0, 1]");
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const long long rank = std::max<long long>(
      1, static_cast<long long>(
             std::ceil(q * static_cast<double>(values.size()))));
  return values[static_cast<std::size_t>(rank - 1)];
}

}  // namespace tarr::insight
