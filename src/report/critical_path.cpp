#include "report/critical_path.hpp"

#include <algorithm>

namespace tarr::report {

const char* to_string(PathChannel c) {
  switch (c) {
    case PathChannel::IntraSocket:
      return "intra-socket";
    case PathChannel::Qpi:
      return "qpi";
    case PathChannel::IntraLeaf:
      return "intra-leaf";
    case PathChannel::CrossCore:
      return "cross-core";
    case PathChannel::Local:
      return "local";
    case PathChannel::Other:
      return "other";
  }
  return "?";
}

PathChannel classify_channel(const topology::Machine& m,
                             const trace::RecordedTransfer& t) {
  switch (t.channel) {
    case trace::Channel::SameComplex:
    case trace::Channel::SameSocket:
      return PathChannel::IntraSocket;
    case trace::Channel::CrossSocket:
      return PathChannel::Qpi;
    case trace::Channel::Local:
      return PathChannel::Local;
    case trace::Channel::Network: {
      const int hops = m.network_hops_between_cores(t.src_core, t.dst_core);
      return hops <= 2 ? PathChannel::IntraLeaf : PathChannel::CrossCore;
    }
  }
  return PathChannel::Other;
}

namespace {

/// The completion-time-determining transfer of a stage: max priced cost,
/// first on ties (a deterministic choice; ties are common in symmetric
/// schedules and any tied element is equally critical).
const trace::RecordedTransfer* critical_transfer(
    const trace::ScheduleRecord& rec, const trace::RecordedStage& s) {
  const trace::RecordedTransfer* best = nullptr;
  for (int i = 0; i < s.num_transfers; ++i) {
    const trace::RecordedTransfer& t = rec.transfers[s.first_transfer + i];
    if (best == nullptr || t.duration > best->duration) best = &t;
  }
  return best;
}

/// Split a stage segment's exact duration into serialization / contention /
/// retransmission.  The parts are clamped so they always sum to exactly
/// `duration` even when per-execution quantities were rounded through the
/// repeat-compressed aggregate:
///   wait     = per-execution drop-detection timeout, a retry artifact;
///   serial   = the critical element's uncontended floor;
///   residual = whatever the stage cost beyond those — sharing stall when
///              the element went through first try, retry-inflated stall
///              otherwise.
void split_costs(PathSegment& seg, Usec retry_wait) {
  const double reps = static_cast<double>(seg.repeats);
  Usec wait = std::min(retry_wait * reps, seg.duration);
  Usec serial =
      std::min(seg.serialization * reps, seg.duration - wait);
  const Usec residual = seg.duration - wait - serial;
  seg.serialization = serial;
  if (seg.attempts > 1) {
    seg.retransmission = wait + residual;
    seg.contention = 0.0;
  } else {
    seg.retransmission = wait;
    seg.contention = residual;
  }
}

}  // namespace

CriticalPath analyze_critical_path(const trace::ScheduleRecord& record,
                                   const topology::Machine& machine) {
  CriticalPath path;
  path.segments.reserve(record.events.size());
  for (const auto& ev : record.events) {
    PathSegment seg;
    if (ev.kind == trace::ScheduleRecord::EventRef::Kind::Stage) {
      const trace::RecordedStage& s = record.stages[ev.index];
      seg.stage = s.stage;
      seg.repeats = s.repeats;
      seg.start = s.start;
      seg.duration = s.duration;
      seg.stage_transfers = s.num_transfers;
      const trace::RecordedTransfer* crit = critical_transfer(record, s);
      if (crit != nullptr) {
        seg.channel = classify_channel(machine, *crit);
        seg.src = crit->src;
        seg.dst = crit->dst;
        seg.bytes = crit->bytes;
        seg.attempts = crit->attempts;
        seg.serialization = crit->uncontended;  // per-exec; split below
        seg.what = crit->channel == trace::Channel::Local
                       ? "local copy r" + std::to_string(crit->src)
                       : "r" + std::to_string(crit->src) + " -> r" +
                             std::to_string(crit->dst);
      } else {
        seg.what = "(empty stage)";
        seg.serialization = 0.0;
      }
      split_costs(seg, s.retry_wait);
    } else {
      const trace::RecordedExtra& x = record.extras[ev.index];
      seg.start = x.start;
      seg.duration = x.duration;
      seg.what = x.what;
      // Out-of-stage time is uncontended by construction; §V-B local
      // shuffles move bytes through node memory, everything else (compute,
      // one-time overheads) has no channel.
      seg.channel = x.what == "local-shuffle" ? PathChannel::Local
                                              : PathChannel::Other;
      seg.serialization = seg.duration;
    }
    seg.phase = record.phase_at(seg.start);

    // Accumulate in event order: the total replays the engine's own
    // sequence of double additions, so it is bit-exact.
    path.total += seg.duration;
    path.serialization += seg.serialization;
    path.contention += seg.contention;
    path.retransmission += seg.retransmission;
    auto& ch = path.by_channel[seg.channel];
    ch.time += seg.duration;
    ch.segments += 1;
    ch.bytes += static_cast<double>(seg.bytes) * seg.repeats;
    path.segments.push_back(std::move(seg));
  }
  return path;
}

std::map<PathChannel, ChannelFlow> channel_flows(
    const trace::ScheduleRecord& record, const topology::Machine& machine) {
  std::map<PathChannel, ChannelFlow> flows;
  for (const auto& ev : record.events) {
    if (ev.kind != trace::ScheduleRecord::EventRef::Kind::Stage) continue;
    const trace::RecordedStage& s = record.stages[ev.index];
    const double reps = static_cast<double>(s.repeats);
    for (int i = 0; i < s.num_transfers; ++i) {
      const trace::RecordedTransfer& t = record.transfers[s.first_transfer + i];
      auto& f = flows[classify_channel(machine, t)];
      f.transfers += s.repeats;
      f.bytes += static_cast<double>(t.bytes) * reps;
      f.transfer_time += t.duration * reps;
    }
  }
  return flows;
}

}  // namespace tarr::report
