#include "trace/tracer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace tarr::trace {

namespace {

/// Deterministic, locale-independent number formatting for the JSON:
/// exact integers without a decimal point, everything else as %.17g
/// (round-trips doubles).  Trace files of same-seed runs are byte-diffed,
/// so formatting must be a pure function of the value.
std::string fmt(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_meta(std::string& out, const char* kind, int pid, int tid,
                 const std::string& name) {
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" + kind +
         "\",\"args\":{\"name\":\"" + escape(name) + "\"}},\n";
}

constexpr int kPidSim = 0;
constexpr int kPidLoad = 1;
constexpr int kPidWall = 2;
constexpr int kTidPhases = 0;
constexpr int kTidStages = 1;
constexpr int kTidRank0 = 2;  ///< rank r lives on tid kTidRank0 + r

}  // namespace

Tracer::Tracer(TracerOptions opts) : opts_(opts) {}

void Tracer::on_stage(const StageEvent& e) {
  if (opts_.timeline) {
    std::string args = "{\"stage\":" + std::to_string(e.stage) +
                       ",\"transfers\":" + std::to_string(e.transfers);
    if (e.repeats > 1) args += ",\"repeats\":" + std::to_string(e.repeats);
    args += "}";
    spans_.push_back({kPidSim, kTidStages, "stage " + std::to_string(e.stage),
                      e.start, e.duration, std::move(args)});
  }
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
  max_rank_ = std::max(max_rank_, std::max<int>(e.src_rank, e.dst_rank));
  if (opts_.timeline) {
    std::string args = "{\"stage\":" + std::to_string(e.stage) +
                       ",\"dst\":" + std::to_string(e.dst_rank) +
                       ",\"src_core\":" + std::to_string(e.src_core) +
                       ",\"dst_core\":" + std::to_string(e.dst_core) +
                       ",\"bytes\":" + std::to_string(e.bytes) +
                       ",\"channel\":\"" + to_string(e.channel) + "\"" +
                       ",\"contention\":" + fmt(e.contention) +
                       ",\"uncontended\":" + fmt(e.uncontended);
    if (e.attempts > 1) args += ",\"attempts\":" + std::to_string(e.attempts);
    args += "}";
    const std::string name = e.channel == Channel::Local
                                 ? "local copy"
                                 : std::string(to_string(e.channel)) + " -> r" +
                                       std::to_string(e.dst_rank);
    spans_.push_back({kPidSim, kTidRank0 + static_cast<int>(e.src_rank), name,
                      e.start, e.duration, std::move(args)});
  }
  metrics_.observe_transfer(e);
  // Split each priced transfer the way tarr::report's critical-path
  // attribution does: the uncontended floor is serialization; whatever
  // contention (and retransmission reloads) added on top is stall.
  metrics_.observe("transfer.duration", e.duration);
  const double serial = std::min(e.uncontended, e.duration);
  const double residual = e.duration - serial;
  metrics_.observe("transfer.serialization", serial);
  if (e.attempts > 1)
    metrics_.observe("transfer.retransmission", residual);
  else
    metrics_.observe("transfer.stall", residual);
}

void Tracer::on_phase(const PhaseEvent& e) {
  if (opts_.timeline)
    spans_.push_back({kPidSim, kTidPhases, e.name, e.start, e.duration, "{}"});
  metrics_.add_count("phase." + e.name, 1.0);
}

void Tracer::on_time(const TimeEvent& e) {
  // Rendered like a phase span (time added outside stages occupies its own
  // interval on the phases track); the metrics counter accumulates the
  // simulated microseconds, not occurrences.
  if (opts_.timeline)
    spans_.push_back({kPidSim, kTidPhases, e.what, e.start, e.duration, "{}"});
  metrics_.add_count("time." + e.what, e.duration);
}

void Tracer::on_counter(const CounterSample& s) {
  if (opts_.timeline) {
    const char* res = s.kind == CounterSample::Kind::Link ? "cable " : "qpi ";
    counters_.push_back({res + std::to_string(s.id) + " d" +
                             std::to_string(s.dir),
                         s.ts, s.value});
  }
  metrics_.observe_load(s);
}

void Tracer::on_wall_span(const WallSpan& s) {
  // The real seconds always reach the metrics CSV; the *timeline* placement
  // is deterministic-ordinal unless real_wall_time was requested (see
  // file comment of tracer.hpp).
  metrics_.add_count("wall." + s.name, s.seconds);
  if (!opts_.timeline) return;
  if (opts_.real_wall_time) {
    const double us = s.seconds * 1.0e6;
    spans_.push_back({kPidWall, 0, s.name, wall_cursor_, us,
                      "{\"seconds\":" + fmt(s.seconds) + "}"});
    wall_cursor_ += us;
  } else {
    spans_.push_back({kPidWall, 0, s.name, wall_cursor_, 1.0, "{}"});
    wall_cursor_ += 1.0;
  }
}

void Tracer::add_count(const std::string& name, double delta) {
  metrics_.add_count(name, delta);
}

void Tracer::observe(const std::string& name, double value) {
  metrics_.observe(name, value);
}

std::string Tracer::timeline_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

  // Metadata tracks first: stable labels for every pid/tid in use.
  bool have_sim = false;
  bool have_wall = false;
  int max_rank = -1;
  for (const auto& sp : spans_) {
    if (sp.pid == kPidSim) have_sim = true;
    if (sp.pid == kPidWall) have_wall = true;
    if (sp.pid == kPidSim && sp.tid >= kTidRank0)
      max_rank = std::max(max_rank, sp.tid - kTidRank0);
  }
  max_rank = std::max(max_rank, max_rank_);
  if (have_sim || max_rank >= 0) {
    append_meta(out, "process_name", kPidSim, 0, "simulation");
    append_meta(out, "thread_name", kPidSim, kTidPhases, "phases");
    append_meta(out, "thread_name", kPidSim, kTidStages, "stages");
    for (int r = 0; r <= max_rank; ++r)
      append_meta(out, "thread_name", kPidSim, kTidRank0 + r,
                  "rank " + std::to_string(r));
  }
  if (!counters_.empty())
    append_meta(out, "process_name", kPidLoad, 0, "network load");
  if (have_wall)
    append_meta(out, "process_name", kPidWall, 0, "mapping (wall clock)");

  // Complete events, sorted per track by (ts asc, dur desc) so spans that
  // start together nest longest-outermost; the sort is stable and the
  // emission order deterministic, so the serialization is reproducible.
  std::vector<const TimelineSpan*> ordered;
  ordered.reserve(spans_.size());
  for (const auto& sp : spans_) ordered.push_back(&sp);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TimelineSpan* a, const TimelineSpan* b) {
                     if (a->pid != b->pid) return a->pid < b->pid;
                     if (a->tid != b->tid) return a->tid < b->tid;
                     if (a->ts != b->ts) return a->ts < b->ts;
                     return a->dur > b->dur;
                   });
  for (const TimelineSpan* sp : ordered) {
    out += "{\"ph\":\"X\",\"pid\":" + std::to_string(sp->pid) +
           ",\"tid\":" + std::to_string(sp->tid) + ",\"name\":\"" +
           escape(sp->name) + "\",\"ts\":" + fmt(sp->ts) +
           ",\"dur\":" + fmt(sp->dur) + ",\"args\":" +
           (sp->args_json.empty() ? "{}" : sp->args_json) + "},\n";
  }

  // Counter events (emission order is already chronological per track).
  for (const auto& c : counters_) {
    out += "{\"ph\":\"C\",\"pid\":" + std::to_string(kPidLoad) +
           ",\"tid\":0,\"name\":\"" + escape(c.track) + "\",\"ts\":" +
           fmt(c.ts) + ",\"args\":{\"bytes\":" + fmt(c.value) + "}},\n";
  }

  // Drop the trailing ",\n" of the last event, if any.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]}\n";
  return out;
}

void Tracer::write_timeline(const std::string& path) const {
  const std::string body = timeline_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw Error("Tracer: cannot write " + path);
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = n == body.size() && std::fclose(f) == 0;
  if (!ok) throw Error("Tracer: short write to " + path);
}

void Tracer::write_metrics(const std::string& path) const {
  metrics_.write_csv(path);
}

void Tracer::ensure_writable(const std::string& path) {
  // Probe without clobbering: "ab" creates a missing file but never
  // truncates an existing one.  A file the probe itself created is removed
  // so a later failure does not leave an empty artifact behind.
  std::FILE* existing = std::fopen(path.c_str(), "rb");
  const bool existed = existing != nullptr;
  if (existing != nullptr) std::fclose(existing);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr)
    throw Error("cannot open " + path + " for writing");
  std::fclose(f);
  if (!existed) std::remove(path.c_str());
}

}  // namespace tarr::trace
