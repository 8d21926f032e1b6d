#pragma once

#include <map>
#include <string>
#include <vector>

/// \file histogram.hpp
/// Deterministic HDR-style log-linear histograms — the distribution
/// primitive of tarr::insight (see docs/OBSERVABILITY.md, "Distributions &
/// run diagnosis").
///
/// The observability stack so far records sums and peaks; diagnosing
/// imbalance needs *shapes*: is the p99 stage duration 1.1x or 4x the
/// median?  Cloud Collectives (arXiv 2105.14088) makes the case crisply —
/// under multi-tenant fabrics the tail, not the mean, decides whether
/// reordering pays.  This histogram makes tails measurable without giving
/// up the repo's byte-identity contract:
///
///  * Bucketing is log-linear: every power-of-two range (binade) is split
///    into 2^subbucket_bits equal sub-buckets (32 by default), giving a
///    bounded relative width of 1/32 ~ 3.1% per bucket across the whole
///    double range.  Bucket boundaries are exact doubles (ldexp of a dyadic
///    rational), so index_of/lower_bound are pure integer/IEEE functions of
///    the value — no accumulation, no rounding modes, no platform drift.
///  * Counts are exact integers and min/max are tracked exactly;
///    approx_sum() is derived from bucket counts * bucket lower bounds, so
///    it does not depend on the order the samples arrived in.
///  * Quantiles use the nearest-rank definition (rank = ceil(q*N)) over the
///    cumulative bucket counts and return the containing bucket's *lower
///    bound* — the smallest value that maps to the bucket.  When every
///    recorded value lies on a bucket lower bound the quantile is EXACTLY
///    the sorted-array nearest-rank value (tests pin ==); otherwise it is
///    below the true quantile by at most one sub-bucket width.
///
/// Values must be finite and >= 0 (durations, byte counts, residuals);
/// anything else throws tarr::Error instead of corrupting the counts.
/// Zero has a dedicated bucket (it has no binade).

namespace tarr::insight {

/// See file comment.
class Histogram {
 public:
  /// `subbucket_bits` in [0, 10]: each binade splits into 2^bits buckets.
  explicit Histogram(int subbucket_bits = 5);

  /// Record one observation (throws tarr::Error on non-finite or negative
  /// values).
  void record(double value) { record_n(value, 1); }

  /// Record `n` identical observations (n >= 1) — repeat-compressed engine
  /// stages fold in without loops.
  void record_n(double value, long long n);

  long long count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const;  ///< exact smallest recorded value (0 when empty)
  double max() const;  ///< exact largest recorded value (0 when empty)

  /// Sum estimate derived from bucket representatives (count * lower bound
  /// summed in bucket order).
  double approx_sum() const;

  /// Nearest-rank quantile, q in [0, 1] (throws outside).  q = 0 returns
  /// the smallest recorded value's bucket lower bound; empty returns 0.
  /// See file comment for the exactness guarantee.
  double quantile(double q) const;

  int subbucket_bits() const { return subbucket_bits_; }

  /// Bucket index of a positive value (pure function; exposed for tests
  /// and exporters).  value must be > 0, finite.
  int index_of(double value) const;

  /// Smallest value mapping to bucket `index` (exact double).
  double lower_bound(int index) const;
  /// lower_bound of the next bucket: values in [lower, upper) land here.
  double upper_bound(int index) const { return lower_bound(index + 1); }

  /// One exported bucket (positive values only; zeros are reported via
  /// zero_count()).
  struct Bucket {
    int index = 0;
    double lower = 0.0;
    double upper = 0.0;
    long long count = 0;
  };
  /// Non-empty buckets in ascending index order.
  std::vector<Bucket> buckets() const;
  long long zero_count() const { return zero_count_; }

  /// Structural equality (same resolution, same counts, same min/max).
  bool operator==(const Histogram& other) const;

 private:
  int subbucket_bits_;
  int subbuckets_;  ///< 1 << subbucket_bits_
  long long count_ = 0;
  long long zero_count_ = 0;
  double min_ = 0.0;  ///< valid iff count_ > 0
  double max_ = 0.0;
  std::map<int, long long> counts_;  ///< bucket index -> exact count
};

/// Quantiles every exporter reports, in report order.
struct QuantileSpec {
  const char* label;  ///< "p50"
  double q;           ///< 0.50
};
inline constexpr QuantileSpec kStandardQuantiles[] = {
    {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}};

/// Exact nearest-rank quantile of a value set (brute force: copies and
/// sorts).  The reference the histogram quantiles are tested against, and
/// the tool of choice for small exact populations (per-rank loads).
double exact_quantile(std::vector<double> values, double q);

}  // namespace tarr::insight
