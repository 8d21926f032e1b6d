#pragma once

#include <vector>

#include "insight/histogram.hpp"
#include "trace/record.hpp"

/// \file imbalance.hpp
/// Per-rank load-imbalance analytics over a recorded engine run.
///
/// The engine is stage-synchronous: every stage costs what its slowest
/// element costs, so any rank that finishes its own transfers early simply
/// *waits*.  That wait is the quantity this module extracts: for every rank
/// and every stage,
///
///   busy  = the longest transfer the rank participates in that stage
///           (it is either sending, receiving, or copying locally for that
///           duration);
///   stall = stage duration - busy (the barrier wait the stage's slowest
///           element inflicted on this rank).
///
/// Sums are exact: busy/stall per rank accumulate the recorded durations
/// (weighted by repeat compression) in event order, so evidence numbers
/// EXPECT_EQ-match what a test recomputes from the same ScheduleRecord —
/// the same exactness discipline as tarr::report and tarr::analyze.
///
/// On top of the per-rank loads:
///  * a load-imbalance score, max(busy) / mean(busy) — 1.0 is perfectly
///    balanced, 2.0 means the slowest rank works twice the average;
///  * Jain's fairness index over the run's directed cable and QPI byte
///    loads, J = (sum x)^2 / (n * sum x^2) — 1.0 when every loaded
///    resource carries the same bytes, 1/n when one resource carries
///    everything;
///  * top-K straggler ranks (largest busy) and hot resources (most bytes),
///    each with the exact traced numbers as evidence.

namespace tarr::insight {

/// Whole-run load of one rank (exact sums, see file comment).
struct RankLoad {
  Rank rank = 0;
  Usec busy = 0.0;
  Usec stall = 0.0;
  long long transfers = 0;  ///< transfers participated in (repeats counted)
  CoreId core = -1;         ///< core the rank occupied (-1 if never seen)
};

/// Per-stage imbalance summary (repeat-compressed stages appear once).
struct StageImbalance {
  int stage = 0;
  int repeats = 1;
  Usec duration = 0.0;     ///< total across repeats
  double imbalance = 1.0;  ///< max busy / mean busy over participating ranks
  Rank slowest = kNoRank;  ///< rank with the largest busy (lowest on ties)
  Usec slowest_busy = 0.0; ///< per-execution busy of that rank
};

/// One heavily loaded directed resource (exact bytes from the record's
/// aggregate load counters).
struct HotResource {
  bool qpi = false;  ///< false: cable link, true: QPI direction
  int id = 0;
  int dir = 0;
  double bytes = 0.0;
};

/// See file comment.
struct ImbalanceReport {
  std::vector<RankLoad> ranks;  ///< indexed by rank, size = max rank + 1
  std::vector<StageImbalance> stages;

  /// Distributions of the per-rank whole-run loads (and of per-execution
  /// stage durations), for quantile reporting and CSV export.
  Histogram busy_hist;
  Histogram stall_hist;

  double imbalance = 1.0;   ///< max/mean of per-rank busy (1.0 when empty)
  double jain_links = 1.0;  ///< Jain index over directed cable loads
  double jain_qpi = 1.0;    ///< Jain index over directed QPI loads

  std::vector<Rank> stragglers;         ///< top-K ranks by busy, descending
  std::vector<HotResource> hot_resources;  ///< top-K by bytes, descending

  bool empty() const { return ranks.empty(); }
};

/// Jain's fairness index of a value set (1.0 for empty or all-equal input).
double jain_index(const std::vector<double>& values);

/// Analyze `record` (top_k bounds the straggler / hot-resource lists).
ImbalanceReport analyze_imbalance(const trace::ScheduleRecord& record,
                                  int top_k = 8);

}  // namespace tarr::insight
