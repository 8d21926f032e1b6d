#include "trace/tracer.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
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
constexpr int kTidRank0 = 2;  ///< rank r lives on tid kTidRank0 + r

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

void append_meta(std::string& out, const char* kind, int pid, int tid,
                 std::string_view name) {
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
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  Kind kind = Kind::Phase;
  std::size_t index = 0;
};

}  // namespace

Tracer::Tracer(TracerOptions opts) : opts_(opts) {}

void Tracer::on_stage(const StageEvent& e) {
  recorder_.on_stage(e);
  metrics_.add_count("engine.stages", e.repeats);
  metrics_.add_count("engine.transfers",
                     static_cast<double>(e.transfers) * e.repeats);
  // StageEvent.duration for a repeat-compressed event is the TOTAL across
  // repeats; the distribution wants the per-execution cost, weighted by how
  // many executions it stands for.
  metrics_.observe_n("stage.duration",
                     e.duration / static_cast<double>(e.repeats), e.repeats);
}

void Tracer::on_transfer(const TransferEvent& e) {
  recorder_.on_transfer(e);
  metrics_.observe_transfer(e);
  // Split each priced transfer the way tarr::report's critical-path
  // attribution does: the uncontended floor is serialization; whatever
  // contention (and retransmission reloads) added on top is stall.
  metrics_.observe("transfer.duration", e.duration);
  const double serial = std::min(e.uncontended, e.duration);
  metrics_.observe("transfer.serialization", serial);
  metrics_.observe(
      e.attempts > 1 ? "transfer.retransmission" : "transfer.stall",
      e.duration - serial);
}

void Tracer::on_copy(const CopyEvent& e) { recorder_.on_copy(e); }

void Tracer::on_permute(const PermuteEvent& e) { recorder_.on_permute(e); }

void Tracer::on_phase(const PhaseEvent& e) {
  recorder_.on_phase(e);
  metrics_.add_count("phase." + e.name, 1.0);
}

void Tracer::on_time(const TimeEvent& e) {
  // Drawn like a phase span (time added outside stages occupies its own
  // interval on the phases track); the metrics counter accumulates the
  // simulated microseconds, not occurrences.
  recorder_.on_time(e);
  metrics_.add_count("time." + e.what, e.duration);
}

void Tracer::on_counter(const CounterSample& s) {
  recorder_.on_counter(s);
  metrics_.observe_load(s);
}

void Tracer::on_wall_span(const WallSpan& s) {
  // The real seconds always reach the metrics CSV; the *timeline* placement
  // is deterministic-ordinal unless real_wall_time was requested (see
  // file comment of tracer.hpp).
  metrics_.add_count("wall." + s.name, s.seconds);
  wall_spans_.push_back(s);
}

void Tracer::add_count(const std::string& name, double delta) {
  metrics_.add_count(name, delta);
}

void Tracer::observe(const std::string& name, double value) {
  metrics_.observe(name, value);
}

std::string Tracer::timeline_json() const {
  const ScheduleRecord& rec = recorder_.record();
  const std::span<const RecordedTransfer> unstaged = recorder_.unstaged();
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
  int max_rank = -1;
  for (std::size_t i = 0; i < num_transfers; ++i) {
    const RecordedTransfer& t = transfer(i);
    max_rank = std::max({max_rank, t.src, t.dst});
    spans.push_back({kPidSim, kTidRank0 + t.src, t.start, t.duration,
                     Span::Kind::Transfer, i});
  }
  double wall_cursor = 0.0;  // ordinal, or accumulated real microseconds
  for (std::size_t i = 0; i < wall_spans_.size(); ++i) {
    const double dur =
        opts_.real_wall_time ? wall_spans_[i].seconds * 1.0e6 : 1.0;
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
    for (int r = 0; r <= max_rank; ++r)
      append_meta(out, "thread_name", kPidSim, kTidRank0 + r,
                  "rank " + std::to_string(r));
  }
  if (!rec.samples.empty())
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
        if (opts_.real_wall_time) {
          append(out, "{\"seconds\":", w.seconds, "}");
        } else {
          out += "{}";
        }
        break;
      }
    }
    out += "},\n";
  }

  // Counter events, in arrival order (already chronological per track).
  for (const CounterSample& c : rec.samples) {
    append(out, "{\"ph\":\"C\",\"pid\":", kPidLoad, ",\"tid\":0,\"name\":\"",
           c.kind == CounterSample::Kind::Link ? "cable " : "qpi ", c.id, " d",
           c.dir, "\",\"ts\":", c.ts, ",\"args\":{\"bytes\":", c.value,
           "}},\n");
  }

  // Drop the trailing ",\n" of the last event, if any.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]}\n";
  return out;
}

}  // namespace tarr::trace
