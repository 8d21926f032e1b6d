#pragma once

#include <map>
#include <string>
#include <vector>

#include "topology/machine.hpp"
#include "trace/record.hpp"

/// \file critical_path.hpp
/// Critical-path extraction over a recorded engine run.
///
/// The engine is stage-synchronous: the run's completion time is the sum of
/// its stage costs plus the time added outside stages.  Each stage costs
/// what its slowest element costs (plus the transient-fault retry wait), so
/// the completion-time-determining chain is exactly one element per stage —
/// the critical transfer (or aggregated local copy) — followed by the
/// out-of-stage increments.  This module extracts that chain and attributes
/// every segment to
///   * a channel class — intra-socket, QPI (cross-socket), intra-leaf
///     network (host-leaf-host), cross-core-switch network, local memory,
///     other (compute / one-time overheads); the network split is the
///     paper's Fig 3-4 distinction between relieved leaf uplinks and
///     core-switch traversals;
///   * a cost nature — serialization (the uncontended alpha+bytes floor),
///     contention stall (inflation from resource sharing), retransmission
///     overhead (drop-detection timeouts plus retry-inflated stalls).
///
/// Invariant: segment durations sum bit-exactly to the recorded total
/// (tests assert ==, not near): segments adopt the recorded stage/extra
/// durations unchanged and are summed in event order, replaying the exact
/// double additions the engine performed.

namespace tarr::report {

/// Channel taxonomy of critical-path attribution (finer than
/// trace::Channel: the network class is split by whether the route leaves
/// the leaf switch).
enum class PathChannel {
  IntraSocket,  ///< same-socket / same-complex shared memory
  Qpi,          ///< cross-socket (QPI) within a node
  IntraLeaf,    ///< network, host-leaf-host (2 hops)
  CrossCore,    ///< network crossing line/spine (core) switches
  Local,        ///< same-rank memory copies, §V-B shuffles
  Other,        ///< out-of-stage time with no channel (compute, overheads)
};

const char* to_string(PathChannel c);

/// One link of the completion-time-determining chain.
struct PathSegment {
  int stage = -1;    ///< engine stage index, -1 for out-of-stage segments
  int repeats = 1;   ///< executions covered (repeat compression)
  PathChannel channel = PathChannel::Other;
  std::string what;   ///< "r3 -> r17", "local copy r4", extra label
  std::string phase;  ///< innermost enclosing collective phase, "" if none
  Rank src = kNoRank, dst = kNoRank;
  Bytes bytes = 0;       ///< bytes of the critical element (one execution)
  int attempts = 1;      ///< transfer attempts of the critical element
  int stage_transfers = 0;  ///< concurrent transfers in the stage
  Usec start = 0.0;
  Usec duration = 0.0;       ///< contribution to completion time (exact)
  Usec serialization = 0.0;  ///< uncontended floor of the critical element
  Usec contention = 0.0;     ///< sharing-induced stall
  Usec retransmission = 0.0; ///< retry waits + retry-inflated stall
};

/// Per-channel-class attribution totals.
struct ChannelAttribution {
  Usec time = 0.0;    ///< critical-path time on this class
  int segments = 0;   ///< path segments on this class
  double bytes = 0.0; ///< critical-element bytes moved on this class
};

/// The extracted chain plus its aggregations.
struct CriticalPath {
  std::vector<PathSegment> segments;  ///< event order
  Usec total = 0.0;  ///< sum of segment durations (== engine total, exact)
  Usec serialization = 0.0;
  Usec contention = 0.0;
  Usec retransmission = 0.0;
  std::map<PathChannel, ChannelAttribution> by_channel;
};

/// Classify one recorded transfer into the path taxonomy.  Network
/// transfers are split by the routed hop count between the endpoint nodes:
/// a 2-hop route never leaves the leaf switch; anything longer traverses
/// core (line/spine) switches.
PathChannel classify_channel(const topology::Machine& m,
                             const trace::RecordedTransfer& t);

/// Extract the critical path of `record` over `machine` (the machine the
/// run's communicator lived on; a degraded machine works — only routes the
/// schedule actually used are queried).
CriticalPath analyze_critical_path(const trace::ScheduleRecord& record,
                                   const topology::Machine& machine);

/// Per-channel totals over *all* transfers of the run (not only critical
/// ones), weighted by stage repeats: the byte-flow picture the
/// mapping-attribution diff migrates between classes.
struct ChannelFlow {
  long long transfers = 0;  ///< logical transfers (repeats counted)
  double bytes = 0.0;       ///< logical bytes (retries not double-counted)
  Usec transfer_time = 0.0; ///< summed priced transfer costs
};
std::map<PathChannel, ChannelFlow> channel_flows(
    const trace::ScheduleRecord& record, const topology::Machine& machine);

}  // namespace tarr::report
