// tarr::trace: timeline JSON well-formedness, span nesting, mode parity,
// byte-reproducibility, the zero-perturbation guarantee of the
// disabled/enabled trace paths, and digests pinning the rendered timeline
// and metrics of a fixed set of runs.

#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/hierarchical.hpp"
#include "common/permutation.hpp"
#include "core/framework.hpp"
#include "core/topoallgather.hpp"
#include "fault/shrink.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "simmpi/transient.hpp"
#include "tlog/reader.hpp"
#include "tlog/writer.hpp"

namespace tarr::trace {
namespace {

using simmpi::Communicator;
using simmpi::CostConfig;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::make_layout;
using topology::Machine;

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator (objects, arrays, strings, numbers, literals)
// so the well-formedness test needs no external parser.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Helpers.

/// Allgather over a reordered communicator with the sink attached to
/// framework and engine; returns the tracer-visible run.
Usec traced_allgather(
    int nodes, int p, ExecMode mode, TraceSink* sink,
    core::ReorderFramework::Options fw_opts = {},
    collectives::AllgatherAlgo algo = collectives::AllgatherAlgo::Ring) {
  const Machine m = Machine::gpc(nodes);
  const Communicator comm(m, make_layout(m, p, {}));
  core::ReorderFramework fw(m, fw_opts);
  fw.set_trace_sink(sink);
  const auto rc = fw.reorder(comm, algo == collectives::AllgatherAlgo::Ring
                                       ? mapping::Pattern::Ring
                                       : mapping::Pattern::RecursiveDoubling);
  Engine eng(rc.comm, CostConfig{}, mode, /*block=*/256, p);
  eng.set_trace_sink(sink);
  return collectives::run_allgather(eng, {algo, collectives::OrderFix::None},
                                    rc.oldrank);
}

/// The metrics CSV minus the "wall.*" counter rows: those carry real
/// measured seconds by design and are the one part of the registry that is
/// not reproducible across runs.
std::string strip_wall_rows(const std::string& csv) {
  std::string out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t nl = csv.find('\n', pos);
    if (nl == std::string::npos) nl = csv.size() - 1;
    const std::string line = csv.substr(pos, nl + 1 - pos);
    if (line.find("counter,wall.") == std::string::npos) out += line;
    pos = nl + 1;
  }
  return out;
}

/// One complete event ("ph":"X") read back from a timeline.
struct ParsedSpan {
  int pid = 0;
  int tid = 0;
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
};

/// The complete events of `json` in file order.  The exporter writes one
/// event per line and no args object repeats a top-level key, so a line
/// scan reads them back.
std::vector<ParsedSpan> parsed_spans(const std::string& json) {
  std::vector<ParsedSpan> out;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("{\"ph\":\"X\"", 0) != 0) continue;
    const auto value_at = [&](const std::string& key) {
      return line.find("\"" + key + "\":") + key.size() + 3;
    };
    ParsedSpan s;
    s.pid = std::stoi(line.substr(value_at("pid")));
    s.tid = std::stoi(line.substr(value_at("tid")));
    const std::size_t name = value_at("name") + 1;  // past the quote
    s.name = line.substr(name, line.find('"', name) - name);
    s.ts = std::stod(line.substr(value_at("ts")));
    s.dur = std::stod(line.substr(value_at("dur")));
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------

TEST(Trace, TimelineJsonIsSyntacticallyValid) {
  Tracer tracer;
  traced_allgather(2, 16, ExecMode::Timed, &tracer);
  const std::string json = tracer.timeline_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  // The three processes of the track layout are all present.
  EXPECT_NE(json.find("\"simulation\""), std::string::npos);
  EXPECT_NE(json.find("\"network load\""), std::string::npos);
  EXPECT_NE(json.find("\"mapping (wall clock)\""), std::string::npos);
  // Counter samples for at least one directed cable made it in.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("cable "), std::string::npos);
}

TEST(Trace, SpanNestingIsWellFormedPerTrack) {
  Tracer tracer;
  traced_allgather(2, 16, ExecMode::Timed, &tracer);
  const std::vector<ParsedSpan> parsed = parsed_spans(tracer.timeline_json());
  ASSERT_FALSE(parsed.empty());

  std::map<std::pair<int, int>, std::vector<const ParsedSpan*>> tracks;
  for (const auto& s : parsed) tracks[{s.pid, s.tid}].push_back(&s);

  const double eps = 1e-9;
  for (const auto& [track, spans] : tracks) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const auto& a = *spans[i];
        const auto& b = *spans[j];
        const double a_end = a.ts + a.dur;
        const double b_end = b.ts + b.dur;
        const bool disjoint =
            b.ts >= a_end - eps || a.ts >= b_end - eps;
        const bool a_in_b = a.ts >= b.ts - eps && a_end <= b_end + eps;
        const bool b_in_a = b.ts >= a.ts - eps && b_end <= a_end + eps;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "partial overlap on track (" << track.first << ","
            << track.second << "): [" << a.name << " " << a.ts << "+" << a.dur
            << "] vs [" << b.name << " " << b.ts << "+" << b.dur << "]";
      }
    }
  }
}

TEST(Trace, TimedAndDataModesProduceIdenticalTimelines) {
  // Recursive doubling executes the same stage schedule in both modes (the
  // ring instead compresses its identical stages with repeat_last_stage,
  // which is Timed-only by design).
  Tracer timed, data;
  const auto rd = collectives::AllgatherAlgo::RecursiveDoubling;
  traced_allgather(2, 16, ExecMode::Timed, &timed, {}, rd);
  traced_allgather(2, 16, ExecMode::Data, &data, {}, rd);
  EXPECT_EQ(timed.timeline_json(), data.timeline_json());
}

TEST(Trace, SameSeedRunsAreByteIdentical) {
  core::ReorderFramework::Options opts;
  opts.seed = 7;
  Tracer a, b;
  traced_allgather(2, 16, ExecMode::Timed, &a, opts);
  traced_allgather(2, 16, ExecMode::Timed, &b, opts);
  const std::string ja = a.timeline_json();
  EXPECT_FALSE(ja.empty());
  EXPECT_EQ(ja, b.timeline_json());
  // The registry is reproducible except for the wall.* counters, which carry
  // real measured seconds by design.
  EXPECT_EQ(strip_wall_rows(a.metrics().csv()),
            strip_wall_rows(b.metrics().csv()));
}

TEST(Trace, SinkDoesNotPerturbSimulatedCost) {
  // The enabled trace path must price the run bit-identically to the
  // disabled one — including under transient-fault retries, whose RNG draw
  // order must not shift.
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  simmpi::TransientFaultConfig faults;
  faults.drop_prob = 0.2;
  faults.seed = 5;

  auto run = [&](TraceSink* sink) {
    Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
    eng.set_transient_faults(faults);
    if (sink) eng.set_trace_sink(sink);
    return collectives::run_allgather(
        eng,
        {collectives::AllgatherAlgo::RecursiveDoubling,
         collectives::OrderFix::None},
        identity_permutation(16));
  };

  const Usec plain = run(nullptr);
  TraceSink null_sink;
  Tracer tracer;
  EXPECT_EQ(plain, run(&null_sink));  // exact, not approximate
  EXPECT_EQ(plain, run(&tracer));
  // And the tracer saw the retransmissions the fault model priced.
  EXPECT_GT(tracer.metrics().count("fault.retransmissions"), 0.0);
}

TEST(Trace, MetricsRegistryCapturesDecisionsAndHeat) {
  Tracer tracer;
  traced_allgather(2, 16, ExecMode::Timed, &tracer);
  const auto& reg = tracer.metrics();
  EXPECT_FALSE(reg.empty());
  // Engine activity.
  EXPECT_GT(reg.count("engine.stages"), 0.0);
  EXPECT_GT(reg.count("engine.transfers"), 0.0);
  // Mapping decision counters (the heuristic placed every rank).
  EXPECT_GE(reg.count("mapping.placements"), 16.0);
  const std::string csv = reg.csv();
  EXPECT_NE(csv.find("category,key,count,total,peak"), std::string::npos);
  EXPECT_NE(csv.find("cable "), std::string::npos);   // link heat rows
  EXPECT_NE(csv.find("channel"), std::string::npos);  // channel breakdown
}

TEST(Trace, HierarchicalPhasesAppearOnThePhaseTrack) {
  const Machine m = Machine::gpc(4);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, {}));
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
  Tracer tracer;
  eng.set_trace_sink(&tracer);
  collectives::HierAllgatherOptions opts{collectives::AllgatherAlgo::Ring,
                                         collectives::IntraAlgo::Binomial,
                                         collectives::OrderFix::None};
  collectives::run_hier_allgather(eng, opts, identity_permutation(p));

  std::vector<std::string> phases;
  for (const auto& s : parsed_spans(tracer.timeline_json()))
    if (s.pid == 0 && s.tid == 0) phases.push_back(s.name);
  EXPECT_NE(std::find(phases.begin(), phases.end(), "intra-gather"),
            phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "leader-exchange"),
            phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "intra-bcast"),
            phases.end());
}

TEST(Trace, PipelinedHierarchicalPhasesAppearOnThePhaseTrack) {
  // The pipelined variant overlaps the leader ring with the intra-node
  // broadcasts, so it emits a single fused phase after the gather.
  const Machine m = Machine::gpc(4);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, {}));
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
  Tracer tracer;
  eng.set_trace_sink(&tracer);
  collectives::run_hier_allgather_pipelined(eng, collectives::IntraAlgo::Binomial,
                                            collectives::OrderFix::None,
                                            identity_permutation(p));
  std::vector<std::string> phases;
  for (const auto& s : parsed_spans(tracer.timeline_json()))
    if (s.pid == 0 && s.tid == 0) phases.push_back(s.name);
  EXPECT_NE(std::find(phases.begin(), phases.end(), "intra-gather"),
            phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "pipelined-ring-bcast"),
            phases.end());
  // Tracing must not perturb the pipelined schedule's cost.
  Engine plain(comm, CostConfig{}, ExecMode::Timed, 256, p);
  collectives::run_hier_allgather_pipelined(plain,
                                            collectives::IntraAlgo::Binomial,
                                            collectives::OrderFix::None,
                                            identity_permutation(p));
  EXPECT_EQ(plain.total(), eng.total());
}

TEST(Trace, ShrunkenCommunicatorRunsTraceCleanly) {
  // Post-fault tracing: kill a node, shrink, re-run the collective over the
  // survivors — the trace must stay well-formed and cost-transparent.
  const Machine base = Machine::gpc(4);
  const Communicator parent(base, make_layout(base, base.total_cores(), {}));
  const fault::DegradedTopology topo(base, fault::FaultMask{}.fail_node(1));
  const fault::ShrunkComm shrunk = fault::shrink_communicator(topo, parent);

  auto run = [&](TraceSink* sink) {
    Engine eng(shrunk.comm, CostConfig{}, ExecMode::Timed, 256,
               shrunk.comm.size());
    if (sink != nullptr) eng.set_trace_sink(sink);
    return collectives::run_allgather(
        eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
        identity_permutation(shrunk.comm.size()));
  };
  Tracer tracer;
  const Usec traced = run(&tracer);
  EXPECT_EQ(traced, run(nullptr));  // exact, as everywhere else
  const std::string json = tracer.timeline_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  // The dead node's ranks are gone: no span belongs to a rank that died.
  const int survivors = shrunk.comm.size();
  for (const auto& s : parsed_spans(json)) {
    if (s.pid == 0 && s.tid >= 2) {
      EXPECT_LT(s.tid - 2, survivors);
    }
  }
}

TEST(Trace, WallSpansAreOrdinalByDefaultAndRealWhenAsked) {
  // Default: deterministic ordinal placement (dur 1) on the wall-clock pid.
  Tracer det;
  traced_allgather(2, 16, ExecMode::Timed, &det);
  bool saw_wall = false;
  for (const auto& s : parsed_spans(det.timeline_json())) {
    if (s.pid != 2) continue;
    saw_wall = true;
    EXPECT_EQ(s.dur, 1.0) << s.name;
  }
  EXPECT_TRUE(saw_wall);

  // Opt-in: real (non-negative, generally positive) measured durations.
  TracerOptions topts;
  topts.real_wall_time = true;
  Tracer real(topts);
  traced_allgather(2, 16, ExecMode::Timed, &real);
  for (const auto& s : parsed_spans(real.timeline_json())) {
    if (s.pid == 2) {
      EXPECT_GE(s.dur, 0.0);
    }
  }
}

TEST(Trace, TopoAllgatherForwardsItsSink) {
  const Machine m = Machine::gpc(2);
  core::ReorderFramework fw(m);
  const Communicator comm(m, make_layout(m, 16, {}));
  core::TopoAllgatherConfig cfg;  // heuristic mapper by default
  core::TopoAllgather path(fw, comm, cfg);
  Tracer tracer;
  path.set_trace_sink(&tracer);
  const Usec t = path.latency(16 * 1024);
  EXPECT_GT(t, 0.0);
  // Engine events and the first-use reorder's wall spans both arrived.
  EXPECT_GT(tracer.metrics().count("engine.stages"), 0.0);
  bool saw_wall = false;
  for (const auto& s : parsed_spans(tracer.timeline_json()))
    saw_wall |= s.pid == 2;
  EXPECT_TRUE(saw_wall);
  // Tracing must not change the predicted latency.
  core::TopoAllgather untraced(fw, comm, cfg);
  EXPECT_EQ(t, untraced.latency(16 * 1024));
}

// ---------------------------------------------------------------------------
// TraceSink contract: default handlers are no-ops, TeeSink fans out in order.

/// Appends one token per received event to a shared journal, so tests can
/// assert exact fan-out ordering across two sinks.
class JournalSink final : public TraceSink {
 public:
  JournalSink(std::string tag, std::vector<std::string>* journal)
      : tag_(std::move(tag)), journal_(journal) {}

  void on_stage(const StageEvent&) override { note("stage"); }
  void on_transfer(const TransferEvent&) override { note("transfer"); }
  void on_copy(const CopyEvent&) override { note("copy"); }
  void on_permute(const PermuteEvent&) override { note("permute"); }
  void on_phase(const PhaseEvent&) override { note("phase"); }
  void on_counter(const CounterSample&) override { note("counter"); }
  void on_wall_span(const WallSpan&) override { note("wall"); }
  void on_time(const TimeEvent&) override { note("time"); }
  void add_count(const std::string&, double) override { note("count"); }
  void observe(const std::string&, double) override { note("observe"); }

 private:
  void note(const char* what) { journal_->push_back(tag_ + ":" + what); }
  std::string tag_;
  std::vector<std::string>* journal_;
};

/// Drives all ten TraceSink entry points exactly once.
void emit_one_of_each(TraceSink& sink) {
  sink.on_stage(StageEvent{});
  sink.on_transfer(TransferEvent{});
  sink.on_copy(CopyEvent{});
  sink.on_permute(PermuteEvent{});
  sink.on_phase(PhaseEvent{});
  sink.on_counter(CounterSample{});
  sink.on_wall_span(WallSpan{});
  sink.on_time(TimeEvent{});
  sink.add_count("n", 1.0);
  sink.observe("n", 1.0);
}

TEST(Trace, DefaultSinkHandlersAreNoOps) {
  // A sink overriding nothing must accept every event kind without effect —
  // the contract that lets concrete sinks implement only what they consume.
  class MinimalSink final : public TraceSink {};
  MinimalSink minimal;
  emit_one_of_each(minimal);
  TraceSink null_sink;
  emit_one_of_each(null_sink);  // same contract, the base class itself
}

TEST(Trace, TeeSinkForwardsEveryKindFirstThenSecond) {
  std::vector<std::string> journal;
  JournalSink first("a", &journal), second("b", &journal);
  TeeSink tee({&first, &second});
  emit_one_of_each(tee);
  const std::vector<std::string> expected = {
      "a:stage",   "b:stage",   "a:transfer", "b:transfer", "a:copy",
      "b:copy",    "a:permute", "b:permute",  "a:phase",    "b:phase",
      "a:counter", "b:counter", "a:wall",     "b:wall",     "a:time",
      "b:time",    "a:count",   "b:count",    "a:observe",  "b:observe"};
  EXPECT_EQ(journal, expected);
}

TEST(Trace, TeeSinkToleratesNullLegs) {
  std::vector<std::string> journal;
  JournalSink only("x", &journal);
  TeeSink first_null({nullptr, &only});
  emit_one_of_each(first_null);
  EXPECT_EQ(journal.size(), 10u);
  journal.clear();
  TeeSink second_null({&only, nullptr});
  emit_one_of_each(second_null);
  EXPECT_EQ(journal.size(), 10u);
  TeeSink both_null({nullptr, nullptr});
  EXPECT_TRUE(both_null.empty());
  emit_one_of_each(both_null);  // must not crash
}

TEST(Trace, TeeSinkFeedsAnyNumberOfLegsInOrder) {
  // One flat stack replaces nested pairs: three legs hear each event in
  // construction order, and a null leg anywhere is skipped.
  std::vector<std::string> journal;
  JournalSink a("a", &journal), b("b", &journal), c("c", &journal);
  TeeSink tee({&a, nullptr, &b, &c});
  EXPECT_FALSE(tee.empty());
  tee.on_stage(StageEvent{});
  tee.add_count("n", 1.0);
  const std::vector<std::string> expected = {"a:stage", "b:stage", "c:stage",
                                             "a:count", "b:count", "c:count"};
  EXPECT_EQ(journal, expected);
}

TEST(Trace, StageRepeatCompressionScalesMetrics) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, {}));
  auto run = [&](int repeats, Tracer& tracer) {
    Engine eng(comm, CostConfig{}, ExecMode::Timed, 64, 4);
    eng.set_trace_sink(&tracer);
    eng.begin_stage();
    eng.copy(0, 0, 1, 0, 1);
    eng.end_stage();
    if (repeats > 1) eng.repeat_last_stage(repeats - 1);
    return eng.total();
  };
  Tracer once, thrice;
  const Usec t1 = run(1, once);
  const Usec t3 = run(3, thrice);
  EXPECT_NEAR(t3, 3.0 * t1, 1e-9);
  EXPECT_EQ(thrice.metrics().count("engine.stages"),
            3.0 * once.metrics().count("engine.stages"));
}

// ---------------------------------------------------------------------------
// Timeline and metrics digests.  Every run below is pinned by the FNV-1a
// digest of its timeline_json() and of its metrics CSV (wall.* rows aside),
// recorded while the Tracer buffered its own span list instead of rendering
// from the ScheduleRecord.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Allgather over a reordered GPC 4 communicator (32 ranks); the sink hears
/// the framework's ordinal wall spans and decision counters too.
void reordered_allgather(TraceSink* sink, collectives::AllgatherAlgo algo,
                         mapping::Pattern pattern,
                         collectives::OrderFix fix =
                             collectives::OrderFix::None) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, m.total_cores(), {}));
  core::ReorderFramework fw(m);
  fw.set_trace_sink(sink);
  const auto rc = fw.reorder(comm, pattern);
  Engine eng(rc.comm, CostConfig{}, ExecMode::Timed, 256, rc.comm.size());
  eng.set_trace_sink(sink);
  collectives::run_allgather(eng, {algo, fix}, rc.oldrank);
}

void rd_reordered(TraceSink* sink) {
  reordered_allgather(sink, collectives::AllgatherAlgo::RecursiveDoubling,
                      mapping::Pattern::RecursiveDoubling);
}

void hier_allgather(TraceSink* sink, bool pipelined) {
  const Machine m = Machine::gpc(4);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, {}));
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
  eng.set_trace_sink(sink);
  if (pipelined) {
    collectives::run_hier_allgather_pipelined(
        eng, collectives::IntraAlgo::Binomial, collectives::OrderFix::None,
        identity_permutation(p));
  } else {
    collectives::run_hier_allgather(
        eng,
        {collectives::AllgatherAlgo::Ring, collectives::IntraAlgo::Binomial,
         collectives::OrderFix::None},
        identity_permutation(p));
  }
}

void transient_rd(TraceSink* sink) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  simmpi::TransientFaultConfig faults;
  faults.drop_prob = 0.2;
  faults.seed = 5;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  eng.set_transient_faults(faults);
  eng.set_trace_sink(sink);
  collectives::run_allgather(
      eng,
      {collectives::AllgatherAlgo::RecursiveDoubling,
       collectives::OrderFix::None},
      identity_permutation(16));
}

void shrunk_ring(TraceSink* sink) {
  const Machine base = Machine::gpc(4);
  const Communicator parent(base, make_layout(base, base.total_cores(), {}));
  const fault::DegradedTopology topo(base, fault::FaultMask{}.fail_node(1));
  const fault::ShrunkComm shrunk = fault::shrink_communicator(topo, parent);
  Engine eng(shrunk.comm, CostConfig{}, ExecMode::Timed, 256,
             shrunk.comm.size());
  eng.set_trace_sink(sink);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
      identity_permutation(shrunk.comm.size()));
}

/// rd_reordered captured into a `.tlog` through `opts`, replayed into `sink`.
void replayed_rd(TraceSink* sink, const tlog::TlogOptions& opts,
                 const std::string& name) {
  const std::string path = testing::TempDir() + "tarr_trace_" + name;
  {
    tlog::TlogSink capture(path, opts);
    rd_reordered(&capture);
    capture.finish();
  }
  tlog::replay(path, *sink);
  std::remove(path.c_str());
}

/// Phases and time events tied on (ts, dur), arriving in both orders: the
/// shared phases track must keep each pair in arrival order.
void tied_phase_and_time(TraceSink* sink) {
  sink->on_phase(PhaseEvent{"phase-first", 0.0, 5.0});
  sink->on_time(TimeEvent{"time-second", 0.0, 5.0});
  sink->on_time(TimeEvent{"time-first", 10.0, 2.0});
  sink->on_phase(PhaseEvent{"phase-second", 10.0, 2.0});
  sink->on_phase(PhaseEvent{"enclosing", 0.0, 12.0});
}

struct DigestCase {
  const char* name;
  std::function<void(TraceSink*)> run;
  std::uint64_t timeline;
  std::uint64_t metrics;
};

std::vector<DigestCase> digest_cases() {
  using collectives::AllgatherAlgo;
  using collectives::OrderFix;
  using mapping::Pattern;
  const auto ring = [](TraceSink* s) {
    reordered_allgather(s, AllgatherAlgo::Ring, Pattern::Ring);
  };
  const auto bruck = [](TraceSink* s) {
    reordered_allgather(s, AllgatherAlgo::Bruck, Pattern::Bruck);
  };
  const auto hier = [](TraceSink* s) { hier_allgather(s, false); };
  const auto pipelined = [](TraceSink* s) { hier_allgather(s, true); };
  const auto init_comm = [](TraceSink* s) {
    reordered_allgather(s, AllgatherAlgo::RecursiveDoubling,
                        Pattern::RecursiveDoubling, OrderFix::InitComm);
  };
  const auto end_shuffle = [](TraceSink* s) {
    reordered_allgather(s, AllgatherAlgo::RecursiveDoubling,
                        Pattern::RecursiveDoubling, OrderFix::EndShuffle);
  };
  const auto kinds = [](TraceSink* s) {
    tlog::TlogOptions opts;
    opts.filter.kinds = 1u << static_cast<int>(tlog::EventKind::Transfer);
    replayed_rd(s, opts, "kinds.tlog");
  };
  const auto stages = [](TraceSink* s) {
    tlog::TlogOptions opts;
    opts.filter.min_stage = 1;
    opts.filter.max_stage = 2;
    replayed_rd(s, opts, "stages.tlog");
  };
  const auto ranks = [](TraceSink* s) {
    tlog::TlogOptions opts;
    opts.filter.min_rank = 0;
    opts.filter.max_rank = 3;
    replayed_rd(s, opts, "ranks.tlog");
  };
  const auto sampled = [](TraceSink* s) {
    tlog::TlogOptions opts;
    opts.sample_every = 3;
    replayed_rd(s, opts, "sampled.tlog");
  };
  return {
      {"rd", rd_reordered, 0x4a94338740d03a64ull, 0x6f6a85e903358a93ull},
      {"ring", ring, 0xe03eed5424e89b04ull, 0x76165ebfbcf9b2b4ull},
      {"bruck", bruck, 0x42e432f088286d3bull, 0xdbf19b8a0f641b8full},
      {"hier", hier, 0x3ff6aedfdeabcc6dull, 0x243a7a9122dfdce4ull},
      {"pipelined", pipelined, 0x2dcf8ce0cb0998bdull, 0x2884c302a68736caull},
      {"init-comm", init_comm, 0xae04884605331ee8ull, 0x7f268b54c17f24cdull},
      {"end-shuffle", end_shuffle, 0xbfb06eaca23c11fcull,
       0x893e73db565681a4ull},
      {"transient", transient_rd, 0x0bade046cac72a90ull,
       0x05e5713a9f400c47ull},
      {"shrunk", shrunk_ring, 0x9234085198d5af00ull, 0xf268b73bc2170bf0ull},
      {"tlog-kinds", kinds, 0x7068350cee5df27cull, 0x86d5977bb6c6f995ull},
      {"tlog-stages", stages, 0xeac839b01a6814c1ull, 0x7ce2f388cb0aaba4ull},
      {"tlog-ranks", ranks, 0x0d148ba7a58c8716ull, 0x627d243ab97bebcaull},
      {"tlog-sampled", sampled, 0xf2fcd43f917f47adull, 0x029b4cdf0a5a38abull},
      {"tied-phases", tied_phase_and_time, 0x871b0ddeba149851ull,
       0x10f7cc3c91156e81ull},
  };
}

TEST(Trace, TimelineAndMetricsMatchRecordedDigests) {
  for (const DigestCase& c : digest_cases()) {
    SCOPED_TRACE(c.name);
    Tracer tracer;
    c.run(&tracer);
    const std::uint64_t timeline = fnv1a(tracer.timeline_json());
    const std::uint64_t metrics =
        fnv1a(strip_wall_rows(tracer.metrics().csv()));
    EXPECT_EQ(timeline, c.timeline);
    EXPECT_EQ(metrics, c.metrics);
  }
}

}  // namespace
}  // namespace tarr::trace
