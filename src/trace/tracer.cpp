#include "trace/tracer.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/serialize.hpp"

namespace tarr::trace {

namespace {

constexpr int kPidSim = 0;
constexpr int kPidLoad = 1;
constexpr int kPidWall = 2;
constexpr int kTidPhases = 0;
constexpr int kTidStages = 1;
constexpr std::int64_t kTidRank0 = 2;  ///< rank r lives on tid kTidRank0 + r

void put(std::string& out, std::string_view text) { out += text; }
void put(std::string& out, double v) { append_number(out, v); }
template <std::integral T>
void put(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends each part in turn: text as is, integers in decimal, doubles
/// through append_number.
template <class... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

void append_meta(std::string& out, const char* kind, int pid,
                 std::int64_t tid, std::string_view name) {
  append(out, "{\"ph\":\"M\",\"pid\":", pid, ",\"tid\":", tid,
         ",\"name\":\"", kind, "\",\"args\":{\"name\":\"");
  append_json_escaped(out, name);
  out += "\"}},\n";
}

/// One complete event ("ph":"X") of the timeline: its track and interval,
/// and which record entry it draws.
struct Span {
  enum class Kind { Phase, Extra, Stage, Transfer, Wall };
  int pid = 0;
  std::int64_t tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  Kind kind = Kind::Phase;
  std::size_t index = 0;
};

}  // namespace

void Tracer::on_transfer(const TransferEvent& e) {
  pending_.push_back(RecordedTransfer{e.stage, e.src_rank, e.dst_rank,
                                      e.src_core, e.dst_core, e.bytes,
                                      e.channel, e.contention, e.attempts,
                                      e.duration, e.uncontended, e.start});
  pending_copies_.insert(pending_copies_.end(), e.copies.begin(),
                         e.copies.end());
}

void Tracer::on_stage(const StageEvent& e) {
  RecordedStage s;
  s.stage = e.stage;
  s.repeats = e.repeats;
  s.start = e.start;
  s.duration = e.duration;
  s.retry_wait = e.retry_wait;
  s.transfers = e.transfers;
  if (e.repeats == 1) {
    // A real stage: adopt the transfers/copies that arrived since the last
    // stage event (the engine emits them before the stage itself), and the
    // loads the stage event carries.
    s.first_transfer = static_cast<int>(record_.transfers.size());
    s.num_transfers = static_cast<int>(pending_.size());
    record_.transfers.insert(record_.transfers.end(), pending_.begin(),
                             pending_.end());
    pending_.clear();
    s.first_copy = static_cast<int>(record_.copies.size());
    s.num_copies = static_cast<int>(pending_copies_.size());
    record_.copies.insert(record_.copies.end(), pending_copies_.begin(),
                          pending_copies_.end());
    pending_copies_.clear();
    s.first_load = static_cast<int>(record_.loads.size());
    s.num_loads = static_cast<int>(e.loads.size());
    record_.loads.insert(record_.loads.end(), e.loads.begin(), e.loads.end());
    stage_entry_[e.stage] = static_cast<int>(record_.stages.size());
  } else {
    // Repeat compression re-executes the stage just ended: share its
    // transfer/copy/load slices (the repeat event itself carries none).
    const auto it = stage_entry_.find(e.stage);
    if (it != stage_entry_.end()) {
      const RecordedStage& orig = record_.stages[it->second];
      s.first_transfer = orig.first_transfer;
      s.num_transfers = orig.num_transfers;
      s.first_copy = orig.first_copy;
      s.num_copies = orig.num_copies;
      s.first_load = orig.first_load;
      s.num_loads = orig.num_loads;
    }
  }
  record_.events.push_back(
      {ScheduleRecord::EventRef::Kind::Stage,
       static_cast<int>(record_.stages.size())});
  record_.stages.push_back(std::move(s));
  record_.total += e.duration;
}

void Tracer::on_phase(const PhaseEvent& e) { record_.phases.push_back(e); }

void Tracer::on_time(const TimeEvent& e) {
  record_.events.push_back(
      {ScheduleRecord::EventRef::Kind::Extra,
       static_cast<int>(record_.extras.size())});
  record_.extras.push_back(RecordedExtra{
      e.what, e.start, e.duration,
      std::vector<int>(e.dst_of_block.begin(), e.dst_of_block.end()),
      static_cast<int>(record_.phases.size())});
  record_.total += e.duration;
}

void Tracer::on_wall_span(const WallSpan& s) { wall_spans_.push_back(s); }

void Tracer::add_count(const std::string& name, double delta) {
  named_.add_count(name, delta);
}

void Tracer::observe(const std::string& name, double value) {
  named_.observe(name, value);
}

MetricsRegistry Tracer::metrics() const {
  // The record keeps arrival order, so every key below receives its
  // additions in the order the events arrived; histograms do not depend on
  // sample order at all.
  MetricsRegistry m = named_;
  const auto fold = [&m](const RecordedTransfer& t, long long executions,
                         bool drawn) {
    m.observe_transfer({.bytes = t.bytes,
                        .channel = t.channel,
                        .attempts = t.attempts,
                        .duration = t.duration,
                        .uncontended = t.uncontended},
                       executions);
    if (drawn && t.attempts > 1)
      m.add_count("fault.retransmissions", t.attempts - 1);
  };
  for (const RecordedStage& s : record_.stages) {
    // Retransmissions count as drawn; a repeat-compressed entry draws none.
    for (const RecordedTransfer& t : record_.transfers_of(s))
      fold(t, s.repeats, s.repeats == 1);
    m.add_count("engine.stages", s.repeats);
    m.add_count("engine.transfers",
                static_cast<double>(s.transfers) * s.repeats);
    // The entry's duration is the total across its repeats; the
    // distribution wants the per-execution cost, once per execution.
    m.observe_n("stage.duration",
                s.duration / static_cast<double>(s.repeats), s.repeats);
    for (const Load& l : record_.loads_of(s)) m.observe_load(l, s.repeats);
  }
  for (const RecordedTransfer& t : unstaged()) fold(t, 1, true);
  for (const PhaseEvent& p : record_.phases)
    m.add_count("phase." + p.name, 1.0);
  // Simulated microseconds added outside stages, not occurrences.
  for (const RecordedExtra& x : record_.extras)
    m.add_count("time." + x.what, x.duration);
  for (const WallSpan& w : wall_spans_)
    m.add_count("wall." + w.name, w.seconds);
  return m;
}

std::string Tracer::timeline_json(bool real_wall_time) const {
  const ScheduleRecord& rec = record_;
  const std::span<const RecordedTransfer> unstaged = pending_;
  const auto transfer = [&](std::size_t i) -> const RecordedTransfer& {
    return i < rec.transfers.size() ? rec.transfers[i]
                                    : unstaged[i - rec.transfers.size()];
  };
  const std::size_t num_transfers = rec.transfers.size() + unstaged.size();

  // Every complete event, each track in arrival order: the sort below is
  // stable, so arrival breaks (ts, dur) ties.  Phases and extras share the
  // phases track and interleave as they arrived.
  std::vector<Span> spans;
  spans.reserve(rec.phases.size() + rec.extras.size() + rec.stages.size() +
                num_transfers + wall_spans_.size());
  std::size_t phase = 0;
  const auto phases_until = [&](std::size_t end) {
    for (; phase < end; ++phase)
      spans.push_back({kPidSim, kTidPhases, rec.phases[phase].start,
                       rec.phases[phase].duration, Span::Kind::Phase, phase});
  };
  for (std::size_t i = 0; i < rec.extras.size(); ++i) {
    const RecordedExtra& x = rec.extras[i];
    phases_until(static_cast<std::size_t>(x.phases_before));
    spans.push_back(
        {kPidSim, kTidPhases, x.start, x.duration, Span::Kind::Extra, i});
  }
  phases_until(rec.phases.size());
  for (std::size_t i = 0; i < rec.stages.size(); ++i)
    spans.push_back({kPidSim, kTidStages, rec.stages[i].start,
                     rec.stages[i].duration, Span::Kind::Stage, i});
  std::vector<Rank> ranks;  // every rank a drawn transfer names
  ranks.reserve(2 * num_transfers);
  for (std::size_t i = 0; i < num_transfers; ++i) {
    const RecordedTransfer& t = transfer(i);
    ranks.push_back(t.src);
    ranks.push_back(t.dst);
    spans.push_back({kPidSim, kTidRank0 + t.src, t.start, t.duration,
                     Span::Kind::Transfer, i});
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  double wall_cursor = 0.0;  // ordinal, or accumulated real microseconds
  for (std::size_t i = 0; i < wall_spans_.size(); ++i) {
    const double dur =
        real_wall_time ? wall_spans_[i].seconds * 1.0e6 : 1.0;
    spans.push_back({kPidWall, 0, wall_cursor, dur, Span::Kind::Wall, i});
    wall_cursor += dur;
  }
  // Per track by (ts asc, dur desc), so spans that start together nest
  // longest-outermost.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.dur > b.dur;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Metadata tracks first: stable labels for every pid/tid in use.
  if (spans.size() > wall_spans_.size()) {  // any simulation span
    append_meta(out, "process_name", kPidSim, 0, "simulation");
    append_meta(out, "thread_name", kPidSim, kTidPhases, "phases");
    append_meta(out, "thread_name", kPidSim, kTidStages, "stages");
    for (const Rank r : ranks)
      append_meta(out, "thread_name", kPidSim, kTidRank0 + r,
                  "rank " + std::to_string(r));
  }
  if (!rec.loads.empty())
    append_meta(out, "process_name", kPidLoad, 0, "network load");
  if (!wall_spans_.empty())
    append_meta(out, "process_name", kPidWall, 0, "mapping (wall clock)");

  for (const Span& sp : spans) {
    append(out, "{\"ph\":\"X\",\"pid\":", sp.pid, ",\"tid\":", sp.tid,
           ",\"name\":\"");
    const auto interval = [&] {
      append(out, "\",\"ts\":", sp.ts, ",\"dur\":", sp.dur, ",\"args\":");
    };
    switch (sp.kind) {
      case Span::Kind::Phase:
        append_json_escaped(out, rec.phases[sp.index].name);
        interval();
        out += "{}";
        break;
      case Span::Kind::Extra:
        append_json_escaped(out, rec.extras[sp.index].what);
        interval();
        out += "{}";
        break;
      case Span::Kind::Stage: {
        const RecordedStage& s = rec.stages[sp.index];
        append(out, "stage ", s.stage);
        interval();
        append(out, "{\"stage\":", s.stage, ",\"transfers\":", s.transfers);
        if (s.repeats > 1) append(out, ",\"repeats\":", s.repeats);
        out += '}';
        break;
      }
      case Span::Kind::Transfer: {
        const RecordedTransfer& t = transfer(sp.index);
        const char* channel = to_string(t.channel);
        if (t.channel == Channel::Local) {
          out += "local copy";
        } else {
          append(out, channel, " -> r", t.dst);
        }
        interval();
        append(out, "{\"stage\":", t.stage, ",\"dst\":", t.dst,
               ",\"src_core\":", t.src_core, ",\"dst_core\":", t.dst_core,
               ",\"bytes\":", t.bytes, ",\"channel\":\"", channel,
               "\",\"contention\":", t.contention,
               ",\"uncontended\":", t.uncontended);
        if (t.attempts > 1) append(out, ",\"attempts\":", t.attempts);
        out += '}';
        break;
      }
      case Span::Kind::Wall: {
        const WallSpan& w = wall_spans_[sp.index];
        append_json_escaped(out, w.name);
        interval();
        if (real_wall_time) {
          append(out, "{\"seconds\":", w.seconds, "}");
        } else {
          out += "{}";
        }
        break;
      }
    }
    out += "},\n";
  }

  // Counter events, stage by stage (already chronological per track): each
  // load at its stage's start, then back to zero at the stage's end.
  const auto sample = [&](const Load& l, double ts, double bytes) {
    append(out, "{\"ph\":\"C\",\"pid\":", kPidLoad, ",\"tid\":0,\"name\":\"",
           l.qpi ? "qpi " : "cable ", l.id, " d", l.dir, "\",\"ts\":", ts,
           ",\"args\":{\"bytes\":", bytes, "}},\n");
  };
  for (const RecordedStage& s : rec.stages) {
    if (s.repeats != 1) continue;
    for (const Load& l : rec.loads_of(s)) sample(l, s.start, l.bytes);
    for (const Load& l : rec.loads_of(s)) sample(l, s.start + s.duration, 0.0);
  }

  // Drop the trailing ",\n" of the last event, if any.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]}\n";
  return out;
}

}  // namespace tarr::trace
