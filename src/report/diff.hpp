#pragma once

#include <map>
#include <string>
#include <vector>

#include "report/critical_path.hpp"
#include "topology/machine.hpp"
#include "trace/record.hpp"

/// \file diff.hpp
/// Mapping-attribution diff: given two recorded runs of the *same*
/// communication pattern — typically the trivial (baseline) mapping vs. a
/// topology-aware reordering such as RDMH — explain *where* the improvement
/// came from.  Three views:
///   1. completion time and the critical-path nature totals, side by side;
///   2. per-channel-class migration: how many bytes (and how much priced
///      transfer time) moved between intra-socket / QPI / intra-leaf /
///      cross-core-switch / local channels;
///   3. the top-K relieved physical resources — directed cables and QPI
///      directions whose aggregate load dropped the most — plus the top-K
///      newly loaded ones, from the engine's per-stage load counters.
/// This is the paper's Fig 3-6 narrative ("the reordering converts
/// cross-core-switch traffic into intra-leaf and shared-memory traffic")
/// made mechanical.

namespace tarr::report {

/// Byte/time movement on one channel class between run A and run B.
struct ChannelDelta {
  ChannelFlow a;  ///< run A totals (baseline)
  ChannelFlow b;  ///< run B totals (candidate)
  double bytes_delta() const { return b.bytes - a.bytes; }
  Usec time_delta() const { return b.transfer_time - a.transfer_time; }
};

/// One physical resource whose aggregate byte load changed.
struct ResourceDelta {
  bool qpi = false;  ///< false: directed cable, true: node QPI direction
  int id = 0;        ///< cable id / node id
  int dir = 0;
  double bytes_a = 0.0;
  double bytes_b = 0.0;
  double delta() const { return bytes_b - bytes_a; }
  std::string label() const;
};

/// The full diff of two runs (see file comment).
struct MappingDiff {
  Usec total_a = 0.0, total_b = 0.0;
  /// (a - b) / a * 100: positive means run B is faster.
  double improvement_percent = 0.0;
  CriticalPath path_a, path_b;
  std::map<PathChannel, ChannelDelta> channels;
  std::vector<ResourceDelta> relieved;      ///< largest load drops first
  std::vector<ResourceDelta> newly_loaded;  ///< largest load gains first
};

/// Diff run `a` (baseline) against run `b` (candidate) over `machine`.
/// `top_k` bounds both resource lists.
MappingDiff diff_runs(const trace::ScheduleRecord& a,
                      const trace::ScheduleRecord& b,
                      const topology::Machine& machine, int top_k = 8);

}  // namespace tarr::report
