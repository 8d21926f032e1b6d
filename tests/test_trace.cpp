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
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/allgatherv.hpp"
#include "collectives/hierarchical.hpp"
#include "collectives/schedules.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/framework.hpp"
#include "core/topoallgather.hpp"
#include "fault/shrink.hpp"
#include "fuzz_support.hpp"
#include "prof/obs.hpp"
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
    std::uint64_t seed = 1,
    collectives::AllgatherAlgo algo = collectives::AllgatherAlgo::Ring) {
  const Machine m = Machine::gpc(nodes);
  const Communicator comm(m, make_layout(m, p, {}));
  core::ReorderFramework fw(m, seed);
  fw.set_trace_sink(sink);
  const auto rc = fw.reorder(comm, algo == collectives::AllgatherAlgo::Ring
                                       ? mapping::Pattern::Ring
                                       : mapping::Pattern::RecursiveDoubling);
  obs::Install traced(sink);
  Engine eng(rc.comm, CostConfig{}, mode, /*block=*/256, p);
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
  traced_allgather(2, 16, ExecMode::Timed, &timed, 1, rd);
  traced_allgather(2, 16, ExecMode::Data, &data, 1, rd);
  EXPECT_EQ(timed.timeline_json(), data.timeline_json());
}

TEST(Trace, SameSeedRunsAreByteIdentical) {
  Tracer a, b;
  traced_allgather(2, 16, ExecMode::Timed, &a, 7);
  traced_allgather(2, 16, ExecMode::Timed, &b, 7);
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
    obs::Install traced(sink);
    Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
    eng.set_transient_faults(faults);
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
  Tracer tracer;
  obs::Install traced(&tracer);
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
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
  Tracer tracer;
  // The engine takes the tracer when it is built; `plain` below runs
  // untraced.
  Engine eng = [&] {
    obs::Install traced(&tracer);
    return Engine(comm, CostConfig{}, ExecMode::Timed, 256, p);
  }();
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
    obs::Install traced(sink);
    Engine eng(shrunk.comm, CostConfig{}, ExecMode::Timed, 256,
               shrunk.comm.size());
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

TEST(Trace, TimelineRowsFollowTheTransfersOfAReplayedCapture) {
  // One transfer from a large rank to rank 0: the timeline names the two
  // ranks, however large the id, and its rank tids do not overflow.
  for (const Rank far : {Rank{999'999}, std::numeric_limits<Rank>::max()}) {
    SCOPED_TRACE(far);
    const std::string path = testing::TempDir() + "tarr_trace_far.tlog";
    {
      tlog::TlogSink capture(path);
      capture.on_transfer(TransferEvent{.src_rank = far, .duration = 1.0});
      capture.on_stage(StageEvent{.transfers = 1, .duration = 1.0});
      capture.finish();
    }
    Tracer tracer;
    tlog::replay(path, tracer);
    std::remove(path.c_str());
    const std::string json = tracer.timeline_json();
    EXPECT_LT(json.size(), 4096u);
    EXPECT_TRUE(JsonChecker(json).valid());
    std::vector<std::string> rows;
    for (std::size_t at = json.find("\"rank "); at != std::string::npos;
         at = json.find("\"rank ", at + 1))
      rows.push_back(json.substr(at + 1, json.find('"', at + 1) - at - 1));
    EXPECT_EQ(rows, (std::vector<std::string>{
                        "rank 0", "rank " + std::to_string(far)}));
    EXPECT_NE(json.find("\"tid\":" + std::to_string(2 + std::int64_t{far})),
              std::string::npos);
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
  Tracer real;
  traced_allgather(2, 16, ExecMode::Timed, &real);
  for (const auto& s : parsed_spans(real.timeline_json(true))) {
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
// The one channel: an engine takes the sink installed when it is built.

/// One remote copy between the two nodes of GPC 2, on `eng`.
void one_network_stage(Engine& eng) {
  eng.begin_stage();
  eng.copy(0, 0, 15, 0, 1);
  eng.end_stage();
}

TEST(Trace, EngineBuiltBeforeAnInstallEmitsNothing) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 64, 16);
  Tracer tracer;
  obs::Install traced(&tracer);
  one_network_stage(eng);
  EXPECT_TRUE(tracer.record().empty());
  EXPECT_EQ(tracer.metrics().count("engine.stages"), 0.0);
}

TEST(Trace, EngineBuiltInsideAnInstallEmitsItsEvents) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  Tracer tracer;
  Usec total = 0.0;
  {
    obs::Install traced(&tracer);
    Engine eng(comm, CostConfig{}, ExecMode::Timed, 64, 16);
    one_network_stage(eng);
    total = eng.total();
  }
  ASSERT_EQ(tracer.record().stages.size(), 1u);
  EXPECT_EQ(tracer.record().transfers.size(), 1u);
  EXPECT_FALSE(tracer.record().loads.empty());
  EXPECT_EQ(tracer.record().total, total);
}

TEST(Trace, SinklessTopoAllgatherDeliversItsStagesToTheInstalledSink) {
  const Machine m = Machine::gpc(2);
  core::ReorderFramework fw(m);
  const Communicator comm(m, make_layout(m, 16, {}));
  core::TopoAllgather path(fw, comm, core::TopoAllgatherConfig{});
  Tracer tracer;
  Usec t = 0.0;
  {
    obs::Install traced(&tracer);
    t = path.latency(16 * 1024);
  }
  EXPECT_FALSE(tracer.record().stages.empty());
  EXPECT_EQ(tracer.record().total, t);
  EXPECT_GT(tracer.metrics().count("mapping.placements"), 0.0);
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
  void on_phase(const PhaseEvent&) override { note("phase"); }
  void on_wall_span(const WallSpan&) override { note("wall"); }
  void on_time(const TimeEvent&) override { note("time"); }
  void add_count(const std::string&, double) override { note("count"); }
  void observe(const std::string&, double) override { note("observe"); }

 private:
  void note(const char* what) { journal_->push_back(tag_ + ":" + what); }
  std::string tag_;
  std::vector<std::string>* journal_;
};

/// Drives all seven TraceSink entry points exactly once.
void emit_one_of_each(TraceSink& sink) {
  sink.on_stage(StageEvent{});
  sink.on_transfer(TransferEvent{});
  sink.on_phase(PhaseEvent{});
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
      "a:stage", "b:stage", "a:transfer", "b:transfer", "a:phase",
      "b:phase", "a:wall",  "b:wall",     "a:time",     "b:time",
      "a:count", "b:count", "a:observe",  "b:observe"};
  EXPECT_EQ(journal, expected);
}

TEST(Trace, TeeSinkToleratesNullLegs) {
  std::vector<std::string> journal;
  JournalSink only("x", &journal);
  TeeSink first_null({nullptr, &only});
  emit_one_of_each(first_null);
  EXPECT_EQ(journal.size(), 7u);
  journal.clear();
  TeeSink second_null({&only, nullptr});
  emit_one_of_each(second_null);
  EXPECT_EQ(journal.size(), 7u);
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
    obs::Install traced(&tracer);
    Engine eng(comm, CostConfig{}, ExecMode::Timed, 64, 4);
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

/// The link, qpi and channel rows of a metrics CSV and the rows of its
/// transfer.* distributions.
std::string transfer_and_load_rows(const std::string& csv) {
  std::istringstream in(csv);
  std::string out;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("link,", 0) == 0 || line.rfind("qpi,", 0) == 0 ||
        line.rfind("channel,", 0) == 0 ||
        line.rfind("dist,transfer.", 0) == 0 ||
        line.rfind("distbucket,transfer.", 0) == 0)
      out += line + "\n";
  return out;
}

TEST(Trace, RepeatCompressedStagesCountEveryExecution) {
  // Timed mode runs a ring's identical stages as one stage plus a repeat
  // event; Data mode runs every stage.  The link, QPI, channel and
  // transfer.* rows must not tell the two apart, and the link totals must
  // be the record's repeat-weighted cable load totals.
  const Machine m = Machine::gpc(4);
  const int p = m.total_cores();
  for (const char* name : {"allgather-ring", "allreduce-ring",
                           "bcast-scatter-allgather-ring",
                           "hier-allgather-ring"}) {
    SCOPED_TRACE(name);
    const collectives::Schedule& sched = collectives::find_schedule(name);
    const Communicator comm(
        m, make_layout(m, p,
                       sched.hierarchical
                           ? simmpi::LayoutSpec{}
                           : simmpi::LayoutSpec{simmpi::NodeOrder::Cyclic,
                                                simmpi::SocketOrder::Bunch}));
    const auto run = [&](ExecMode mode, Tracer& tracer) {
      obs::Install traced(&tracer);
      Engine eng(comm, CostConfig{}, mode, 1024, sched.buf_blocks(p));
      (void)sched.run(eng, identity_permutation(p));
    };
    Tracer timed, data;
    run(ExecMode::Timed, timed);
    run(ExecMode::Data, data);
    bool compressed = false;
    for (const auto& st : timed.record().stages) compressed |= st.repeats > 1;
    EXPECT_TRUE(compressed);
    const std::string rows = transfer_and_load_rows(timed.metrics().csv());
    EXPECT_NE(rows.find("link,"), std::string::npos);
    EXPECT_EQ(rows, transfer_and_load_rows(data.metrics().csv()));
    std::string totals;
    for (const Load& l : timed.record().load_totals())
      if (!l.qpi)
        totals += "cable " + std::to_string(l.id) + " d" +
                  std::to_string(l.dir) + "," + format_number(l.bytes) + "\n";
    std::istringstream in(rows);
    std::string rows_totals;
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("link,", 0) != 0) continue;
      // link,<key>,count,total,peak
      const std::size_t key = line.find(',') + 1;
      const std::size_t count = line.find(',', key);
      const std::size_t total = line.find(',', count + 1);
      const std::size_t peak = line.find(',', total + 1);
      rows_totals += line.substr(key, count - key) + "," +
                     line.substr(total + 1, peak - total - 1) + "\n";
    }
    EXPECT_EQ(rows_totals, totals);
  }
}

// ---------------------------------------------------------------------------
// Timeline and metrics digests.  Every run below is pinned by the FNV-1a
// digest of its timeline_json() and of its metrics CSV (wall.* rows aside),
// recorded while the Tracer buffered its own span list instead of rendering
// from the ScheduleRecord.  tlog-stages was re-recorded when loads moved
// onto their stage records: its stage window now drops stage 0's loads.
// The metrics of ring, hier and shrunk were re-recorded when the Tracer
// began to fold every execution of a repeat-compressed stage into its
// link, qpi, channel and transfer.* rows.

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
  obs::Install traced(sink);
  Engine eng(rc.comm, CostConfig{}, ExecMode::Timed, 256, rc.comm.size());
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
  obs::Install traced(sink);
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
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
  obs::Install traced(sink);
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  eng.set_transient_faults(faults);
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
  obs::Install traced(sink);
  Engine eng(shrunk.comm, CostConfig{}, ExecMode::Timed, 256,
             shrunk.comm.size());
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
      identity_permutation(shrunk.comm.size()));
}

/// rd_reordered captured into a `.tlog`, replayed into `sink` through
/// `filter`.
void replayed_rd(TraceSink* sink, const tlog::EventFilter& filter,
                 const std::string& name) {
  const std::string path = testing::TempDir() + "tarr_trace_" + name;
  {
    tlog::TlogSink capture(path);
    rd_reordered(&capture);
    capture.finish();
  }
  tlog::replay(path, *sink, filter);
  std::remove(path.c_str());
}

/// Phases and time events tied on (ts, dur), arriving in both orders: the
/// shared phases track must keep each pair in arrival order.
void tied_phase_and_time(TraceSink* sink) {
  sink->on_phase(PhaseEvent{"phase-first", 0.0, 5.0});
  sink->on_time(TimeEvent{"time-second", 0.0, 5.0, {}});
  sink->on_time(TimeEvent{"time-first", 10.0, 2.0, {}});
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
    tlog::EventFilter filter;
    filter.kinds = 1u << static_cast<int>(tlog::EventKind::Transfer);
    replayed_rd(s, filter, "kinds.tlog");
  };
  const auto stages = [](TraceSink* s) {
    tlog::EventFilter filter;
    filter.min_stage = 1;
    filter.max_stage = 2;
    replayed_rd(s, filter, "stages.tlog");
  };
  const auto ranks = [](TraceSink* s) {
    tlog::EventFilter filter;
    filter.min_rank = 0;
    filter.max_rank = 3;
    replayed_rd(s, filter, "ranks.tlog");
  };
  return {
      {"rd", rd_reordered, 0x4a94338740d03a64ull, 0x6f6a85e903358a93ull},
      {"ring", ring, 0xe03eed5424e89b04ull, 0xb5c7556ddb80b88dull},
      {"bruck", bruck, 0x42e432f088286d3bull, 0xdbf19b8a0f641b8full},
      {"hier", hier, 0x3ff6aedfdeabcc6dull, 0xf29034f3bbbc58edull},
      {"pipelined", pipelined, 0x2dcf8ce0cb0998bdull, 0x2884c302a68736caull},
      {"init-comm", init_comm, 0xae04884605331ee8ull, 0x7f268b54c17f24cdull},
      {"end-shuffle", end_shuffle, 0xbfb06eaca23c11fcull,
       0x893e73db565681a4ull},
      {"transient", transient_rd, 0x0bade046cac72a90ull,
       0x05e5713a9f400c47ull},
      {"shrunk", shrunk_ring, 0x9234085198d5af00ull, 0x231c2df33f460488ull},
      {"tlog-kinds", kinds, 0x7068350cee5df27cull, 0x86d5977bb6c6f995ull},
      {"tlog-stages", stages, 0xba425a4948c94591ull, 0xd3cdd6b75e35e72cull},
      // Re-recorded when the timeline began to label only the ranks its
      // transfers name (0x0d148ba7a58c8716 before): the rows of ranks
      // 12-15, which no transfer of the 0:3 window names, left.
      {"tlog-ranks", ranks, 0xd245239505a45246ull, 0x627d243ab97bebcaull},
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

// ---------------------------------------------------------------------------
// Differential oracle: the Tracer renders its metrics from the record at
// export; OnlineMetrics folds the same events while the run executes, with
// the handlers the Tracer had before it stopped folding.  Teed beside a
// Tracer, both must print the same CSV byte for byte.  OnlineMetrics also
// sums every directed resource's bytes per stage event, as the Tracer did
// before the record's load_totals() summed them on demand; both must agree
// bit for bit.

/// The run-time fold: an inner Tracer for the record a repeat event reads
/// back, a registry fed by every handler, and the per-resource byte sums.
class OnlineMetrics final : public TraceSink {
 public:
  void on_stage(const StageEvent& e) override {
    recorder_.on_stage(e);
    metrics_.add_count("engine.stages", e.repeats);
    metrics_.add_count("engine.transfers",
                       static_cast<double>(e.transfers) * e.repeats);
    // StageEvent.duration for a repeat-compressed event is the TOTAL across
    // repeats; the distribution wants the per-execution cost, weighted by
    // how many executions it stands for.
    metrics_.observe_n("stage.duration",
                       e.duration / static_cast<double>(e.repeats),
                       e.repeats);
    if (e.repeats == 1) {
      for (const Load& l : e.loads) {
        metrics_.observe_load(l);
        (l.qpi ? qpi_bytes_ : link_bytes_)[{l.id, l.dir}] += l.bytes;
      }
      return;
    }
    // A repeat-compressed event stands for `repeats` more executions of the
    // stage it names, whose transfers and loads the record already holds.
    const ScheduleRecord& rec = recorder_.record();
    const RecordedStage& s = rec.stages.back();
    for (const RecordedTransfer& t : rec.transfers_of(s))
      metrics_.observe_transfer({.bytes = t.bytes,
                                 .channel = t.channel,
                                 .attempts = t.attempts,
                                 .duration = t.duration,
                                 .uncontended = t.uncontended},
                                e.repeats);
    for (const Load& l : rec.loads_of(s)) {
      metrics_.observe_load(l, e.repeats);
      (l.qpi ? qpi_bytes_ : link_bytes_)[{l.id, l.dir}] +=
          l.bytes * static_cast<double>(e.repeats);
    }
  }

  void on_transfer(const TransferEvent& e) override {
    recorder_.on_transfer(e);
    metrics_.observe_transfer(e);
    // Retransmissions count as drawn; a repeat-compressed stage draws none.
    if (e.attempts > 1)
      metrics_.add_count("fault.retransmissions", e.attempts - 1);
  }

  void on_phase(const PhaseEvent& e) override {
    recorder_.on_phase(e);
    metrics_.add_count("phase." + e.name, 1.0);
  }

  void on_time(const TimeEvent& e) override {
    // The metrics counter accumulates the simulated microseconds, not
    // occurrences.
    recorder_.on_time(e);
    metrics_.add_count("time." + e.what, e.duration);
  }

  void on_wall_span(const WallSpan& s) override {
    metrics_.add_count("wall." + s.name, s.seconds);
  }

  void add_count(const std::string& name, double delta) override {
    metrics_.add_count(name, delta);
  }

  void observe(const std::string& name, double value) override {
    metrics_.observe(name, value);
  }

  const MetricsRegistry& metrics() const { return metrics_; }

  /// The sums as the record's load_totals() lists them: cable links, then
  /// QPI directions, each in ascending (id, dir).
  std::vector<Load> load_totals() const {
    std::vector<Load> out;
    for (const auto& [key, bytes] : link_bytes_)
      out.push_back({false, key.first, key.second, bytes});
    for (const auto& [key, bytes] : qpi_bytes_)
      out.push_back({true, key.first, key.second, bytes});
    return out;
  }

 private:
  Tracer recorder_;
  MetricsRegistry metrics_;
  std::map<std::pair<int, int>, double> link_bytes_;
  std::map<std::pair<int, int>, double> qpi_bytes_;
};

/// Runs `run` into a Tracer teed beside an OnlineMetrics and checks that
/// both print the same metrics CSV and sum the same resource loads.
/// Returns false when the run stopped on
/// a tarr::Error, a size its schedule refuses (2^k ranks or nodes); the
/// events sent before it are compared all the same.
bool folds_like_online(const std::function<void(TraceSink*)>& run) {
  Tracer tracer;
  OnlineMetrics online;
  TeeSink tee({&tracer, &online});
  bool completed = true;
  try {
    run(&tee);
  } catch (const Error&) {
    completed = false;
  }
  EXPECT_EQ(tracer.metrics().csv(), online.metrics().csv());
  EXPECT_EQ(tracer.record().load_totals(), online.load_totals());
  return completed;
}

/// A random order that keeps each node's ranks on consecutive new ranks, as
/// hierarchical runners require: the nodes shuffled, and the ranks within
/// each node.
std::vector<Rank> node_block_shuffle(int nodes, int per_node, Rng& rng) {
  std::vector<Rank> order;
  for (const int n : fuzz::random_permutation(nodes, rng))
    for (const int l : fuzz::random_permutation(per_node, rng))
      order.push_back(n * per_node + l);
  return order;
}

TEST(TraceOracle, EveryScheduleFoldsAtExportAsItDidOnline) {
  // Every table schedule plus the allgatherv ring, in Timed and Data mode,
  // with transient faults off and on, at the identity and shuffled, on GPC
  // 1-4 full nodes.
  struct Case {
    std::string name;
    bool hierarchical = false;
    Bytes block = 1024;
    std::function<int(int)> buf_blocks;
    std::function<void(Engine&, const std::vector<Rank>&)> run;
  };
  std::vector<Case> cases;
  for (const collectives::Schedule& s : collectives::schedules())
    cases.push_back({s.name, s.hierarchical, 1024,
                     [&s](int p) { return s.buf_blocks(p); },
                     [&s](Engine& e, const std::vector<Rank>& oldrank) {
                       (void)s.run(e, oldrank);
                     }});
  // One byte per block, a contribution of 1-4 bytes per rank.
  const auto counts = [](int p) {
    std::vector<int> c;
    for (int r = 0; r < p; ++r) c.push_back(1 + r % 4);
    return c;
  };
  cases.push_back({"allgatherv-ring", false, 1,
                   [&](int p) {
                     return collectives::allgatherv_displacements(
                         counts(p))[static_cast<std::size_t>(p)];
                   },
                   [&](Engine& e, const std::vector<Rank>& oldrank) {
                     (void)collectives::run_allgatherv_ring(
                         e, counts(e.comm().size()), oldrank);
                   }});
  simmpi::TransientFaultConfig faults;
  faults.drop_prob = 0.05;
  faults.corrupt_prob = 0.02;
  faults.seed = 7;
  Rng rng(28);
  int runs = 0, refused = 0;
  for (int nodes = 1; nodes <= 4; ++nodes) {
    const Machine m = Machine::gpc(nodes);
    const int p = m.total_cores();
    for (const Case& c : cases) {
      const Communicator comm(
          m, make_layout(m, p,
                         c.hierarchical
                             ? simmpi::LayoutSpec{}
                             : simmpi::LayoutSpec{simmpi::NodeOrder::Cyclic,
                                                  simmpi::SocketOrder::Bunch}));
      for (const bool shuffled : {false, true}) {
        const std::vector<Rank> oldrank =
            !shuffled ? identity_permutation(p)
            : c.hierarchical
                ? node_block_shuffle(nodes, m.cores_per_node(), rng)
                : fuzz::random_permutation(p, rng);
        const Communicator use = fuzz::arbitrary_reorder(comm, oldrank);
        for (const ExecMode mode : {ExecMode::Timed, ExecMode::Data})
          for (const bool faulty : {false, true}) {
            SCOPED_TRACE(c.name + " gpc" + std::to_string(nodes) +
                         (shuffled ? " shuffled" : " identity") +
                         (mode == ExecMode::Timed ? " timed" : " data") +
                         (faulty ? " faults" : ""));
            const bool ran = folds_like_online([&](TraceSink* sink) {
              obs::Install traced(sink);
              Engine eng(use, CostConfig{}, mode, c.block, c.buf_blocks(p));
              if (faulty) eng.set_transient_faults(faults);
              c.run(eng, oldrank);
            });
            ++(ran ? runs : refused);
          }
      }
    }
  }
  // GPC 3's 24 ranks and 3 nodes are the one size the seven power-of-two
  // schedules refuse, in each of their 8 runs there.
  EXPECT_EQ(refused, 7 * 8);
  EXPECT_EQ(runs + refused, 4 * static_cast<int>(cases.size()) * 8);
}

TEST(TraceOracle, TopoAllgatherFoldsAtExportAsItDidOnline) {
  // Mapping counts, wall spans and selector picks reach the sink through a
  // traced framework, beside the engines' stages.
  for (const bool hierarchical : {false, true}) {
    SCOPED_TRACE(hierarchical ? "hierarchical" : "flat");
    EXPECT_TRUE(folds_like_online([&](TraceSink* sink) {
      const Machine m = Machine::gpc(4);
      core::ReorderFramework fw(m);
      fw.set_trace_sink(sink);
      const Communicator comm(m, make_layout(m, m.total_cores(), {}));
      core::TopoAllgatherConfig cfg;
      cfg.hierarchical = hierarchical;
      core::TopoAllgather path(fw, comm, cfg);
      path.set_trace_sink(sink);
      for (const Bytes msg : {64, 4096, 262144}) (void)path.latency(msg);
    }));
  }
}

TEST(TraceOracle, FilteredReplaysFoldAtExportAsTheyDidOnline) {
  // One 512-rank ring capture: a heuristic reordering under a traced
  // framework, then a Timed ring with transient faults, which issues every
  // stage and draws retransmissions.
  const std::string path = testing::TempDir() + "tarr_trace_oracle.tlog";
  {
    tlog::TlogSink capture(path);
    const Machine m = Machine::gpc(64);
    const Communicator comm(m, make_layout(m, m.total_cores(), {}));
    core::ReorderFramework fw(m);
    fw.set_trace_sink(&capture);
    const auto rc = fw.reorder(comm, mapping::Pattern::Ring);
    obs::Install traced(&capture);
    Engine eng(rc.comm, CostConfig{}, ExecMode::Timed, 256, rc.comm.size());
    simmpi::TransientFaultConfig faults;
    faults.drop_prob = 0.02;
    faults.seed = 11;
    eng.set_transient_faults(faults);
    collectives::run_allgather(
        eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
        rc.oldrank);
    capture.finish();
  }
  const auto kind = [](tlog::EventKind k) {
    return 1u << static_cast<int>(k);
  };
  std::vector<std::pair<std::string, tlog::EventFilter>> filters;
  filters.push_back({"--stages 3:5", {}});
  filters.back().second.min_stage = 3;
  filters.back().second.max_stage = 5;
  filters.push_back({"--ranks 0:7", {}});
  filters.back().second.min_rank = 0;
  filters.back().second.max_rank = 7;
  filters.push_back({"--kinds transfer", {}});
  filters.back().second.kinds = kind(tlog::EventKind::Transfer);
  filters.push_back({"--kinds stage", {}});
  filters.back().second.kinds = kind(tlog::EventKind::Stage);
  filters.push_back({"--stages 0:0 --kinds stage,transfer", {}});
  filters.back().second.min_stage = 0;
  filters.back().second.max_stage = 0;
  filters.back().second.kinds =
      kind(tlog::EventKind::Stage) | kind(tlog::EventKind::Transfer);
  for (const auto& [name, filter] : filters) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(folds_like_online([&](TraceSink* sink) {
      tlog::replay(path, *sink, filter);
    }));
  }
  // Every transfer of a transfer-only replay is unstaged, retransmissions
  // included.
  Tracer transfers_only;
  tlog::replay(path, transfers_only, filters[2].second);
  std::remove(path.c_str());
  EXPECT_TRUE(transfers_only.record().empty());
  EXPECT_EQ(transfers_only.unstaged().size(), 512u * 511u);
  EXPECT_GT(transfers_only.metrics().count("fault.retransmissions"), 0.0);
}

}  // namespace
}  // namespace tarr::trace
