#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "common/types.hpp"
#include "insight/histogram.hpp"
#include "trace/sink.hpp"

/// \file metrics.hpp
/// Aggregated metrics registry of tarr::trace: where the timeline answers
/// "when", the registry answers "how much in total".  It folds the same
/// event stream into
///   * link heat  — per directed cable: stage executions that loaded it
///     (each execution of a repeat-compressed stage counts), total bytes,
///     peak stage load (the congestion the 5:1-blocking figures are about);
///   * QPI heat   — the same per node and direction;
///   * channel breakdown — transfer counts and byte totals per channel
///     class (same-complex / same-socket / cross-socket / network / local),
///     every execution of a repeat-compressed stage counted;
///   * named counters — decision counters (mapping placements, refinement
///     swaps, selector picks) and fault counters (drops, corruptions,
///     retransmissions);
///   * named distributions — deterministic HDR-style histograms
///     (insight::Histogram) of per-stage durations, per-transfer
///     serialization/stall/retransmission splits, probe residuals and prof
///     scope self-times, fed via observe().
///
/// Snapshots serialize to RFC-4180 CSV through the existing
/// tarr::bench::CsvWriter with the fixed schema
///   category,key,count,total,peak
/// (see docs/OBSERVABILITY.md for row semantics per category).
/// Distribution rows APPEND after the pre-existing categories — a registry
/// with no distributions serializes byte-identically to the old schema:
///   dist,<name>,count,approx_sum,max        (summary)
///   dist,<name> min|p50|p90|p99|p999,,value,  (order statistics)
///   distbucket,<name> zero|b<idx>,count,lower,upper  (exact bucket counts)

namespace tarr::trace {

/// What a named metric value feeds: an additive counter or a distribution.
enum class MetricKind { Count, Sample };

/// The one check of a named metric value, which every store applies (the
/// registry on add_count/observe, the tlog writer at emission), so nothing
/// is stored that a replay would refuse: a counter delta must be finite, a
/// distribution sample finite and >= 0.  Throws tarr::Error naming the
/// metric.
void require_storable(MetricKind kind, std::string_view name, double value);

/// See file comment.
class MetricsRegistry {
 public:
  /// Fold `executions` executions of one stage's load of a cable link or
  /// QPI direction.
  void observe_load(const Load& l, long long executions = 1);

  /// Fold `executions` executions of one priced transfer: its channel row
  /// and its transfer.duration / serialization / stall (or retransmission)
  /// distributions.
  void observe_transfer(const TransferEvent& e, long long executions = 1);

  /// Additive named counter.  Rejects non-finite deltas (require_storable)
  /// — a NaN folded in silently would poison every later delta and the CSV
  /// bytes downstream.  Names are looked up by view; a key string is built
  /// only on a name's first use.
  void add_count(std::string_view name, double delta);

  /// One sample of the named distribution.  Rejects non-finite or negative
  /// values (require_storable).
  void observe(std::string_view name, double value);

  /// `n` identical samples (repeat-compressed stages fold in exactly).
  void observe_n(std::string_view name, double value, long long n);

  /// Value of a named counter (0 when never incremented).
  double count(std::string_view name) const;

  /// The named distribution, or nullptr when never observed.
  const insight::Histogram* distribution(std::string_view name) const;

  /// All distributions in deterministic name order.
  const std::map<std::string, insight::Histogram, std::less<>>&
  distributions() const {
    return dists_;
  }

  /// True when nothing has been recorded.
  bool empty() const;

  /// Serialize to CSV (schema in the file comment); rows are emitted in
  /// deterministic (category, key) order.
  std::string csv() const;

 private:
  struct Heat {
    long long stages = 0;  ///< stage executions that loaded the resource
    double total = 0.0;    ///< bytes summed over all stages
    double peak = 0.0;     ///< largest single-stage byte load
  };
  struct ChannelStat {
    long long transfers = 0;
    double bytes = 0.0;
    double peak_bytes = 0.0;  ///< largest single transfer
  };

  std::map<std::pair<int, int>, Heat> link_heat_;  ///< (link, dir) -> heat
  std::map<std::pair<int, int>, Heat> qpi_heat_;   ///< (node, dir) -> heat
  std::map<int, ChannelStat> channels_;            ///< Channel -> stat
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, insight::Histogram, std::less<>> dists_;
};

}  // namespace tarr::trace
