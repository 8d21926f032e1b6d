// tarr::viz: the dashboard renderer's structural contracts — well-formed
// single-file HTML, byte-identical output across same-seed runs, topology
// heatmaps that copy the recorded per-link/per-QPI counters exactly
// (EXPECT_EQ, no tolerance), communication-matrix byte conservation, trend
// flagging, and the empty-record / single-rank edge cases.

#include "viz/dashboard.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "collectives/allgather.hpp"
#include "common/permutation.hpp"
#include "core/framework.hpp"
#include "prof/obs.hpp"
#include "report/critical_path.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "trace/tracer.hpp"
#include "viz/html.hpp"
#include "viz/matrix.hpp"
#include "viz/timeline.hpp"
#include "viz/topo.hpp"
#include "viz/trend.hpp"

namespace tarr::viz {
namespace {

using simmpi::Communicator;
using simmpi::CostConfig;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::make_layout;
using topology::Machine;

// ---------------------------------------------------------------------------
// A small HTML well-formedness checker: every open tag is closed in order.
// The viz output contains no scripts and escapes every attribute/text, so
// scanning for '<'/'>' is exact (neither can appear in content).

void expect_well_formed(const std::string& html) {
  static const std::set<std::string> kVoid = {
      "area", "base", "br",   "col",  "embed",  "hr",
      "img",  "input", "link", "meta", "source", "track", "wbr"};
  std::vector<std::string> stack;
  std::size_t i = 0;
  while ((i = html.find('<', i)) != std::string::npos) {
    if (html.compare(i, 4, "<!--") == 0) {
      i = html.find("-->", i);
      ASSERT_NE(i, std::string::npos) << "unterminated comment";
      i += 3;
      continue;
    }
    if (html[i + 1] == '!') {  // doctype
      i = html.find('>', i);
      ASSERT_NE(i, std::string::npos);
      continue;
    }
    const bool closing = html[i + 1] == '/';
    std::size_t j = i + (closing ? 2 : 1);
    std::size_t k = j;
    while (k < html.size() &&
           std::isalnum(static_cast<unsigned char>(html[k])))
      ++k;
    const std::string name = html.substr(j, k - j);
    ASSERT_FALSE(name.empty()) << "stray '<' at offset " << i;
    const std::size_t end = html.find('>', k);
    ASSERT_NE(end, std::string::npos) << "unterminated tag <" << name;
    const bool self_closing = html[end - 1] == '/';
    if (closing) {
      ASSERT_FALSE(stack.empty()) << "closing </" << name << "> with no open";
      EXPECT_EQ(stack.back(), name) << "mismatched close at offset " << i;
      stack.pop_back();
    } else if (!self_closing && kVoid.find(name) == kVoid.end()) {
      stack.push_back(name);
    }
    i = end + 1;
  }
  EXPECT_TRUE(stack.empty())
      << "unclosed <" << (stack.empty() ? "" : stack.back()) << ">";
}

/// Record one ring allgather over `comm` (identity order restore).
trace::ScheduleRecord record_ring(const Communicator& comm,
                                  Bytes block = 1024) {
  trace::Tracer rec;
  obs::Install traced(&rec);
  Engine eng(comm, CostConfig{}, ExecMode::Timed, block, comm.size());
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
      identity_permutation(comm.size()));
  return rec.take();
}

/// One baseline + reordered pair over a fresh machine, as the CLI builds it.
struct Pair {
  Machine machine;
  trace::ScheduleRecord baseline;
  trace::ScheduleRecord candidate;
};

Pair make_pair(std::uint64_t seed) {
  Machine machine = Machine::gpc(2);
  const simmpi::LayoutSpec cyclic{simmpi::NodeOrder::Cyclic,
                                  simmpi::SocketOrder::Bunch};
  const Communicator comm(machine, make_layout(machine, 16, cyclic));
  core::ReorderFramework::Options fopts;
  fopts.seed = seed;
  core::ReorderFramework fw(machine, fopts);
  const core::ReorderedComm rc = fw.reorder(comm, mapping::Pattern::Ring);
  trace::ScheduleRecord baseline = record_ring(comm);
  trace::ScheduleRecord candidate = record_ring(rc.comm);
  return Pair{std::move(machine), std::move(baseline), std::move(candidate)};
}

report::BenchSnapshot sample_snapshot(double latency) {
  report::BenchSnapshot s;
  s.bench = "fig3_nonhier";
  s.config = "smoke";
  s.metrics.push_back({"latency_us", latency, "us", false, true});
  s.metrics.push_back({"improvement", 30.0, "percent", true, true});
  return s;
}

// ---------------------------------------------------------------------------
// Formatting and palette primitives.

TEST(Html, FormattersAreDeterministicAndLocaleFree) {
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(-3.0), "-3");
  EXPECT_EQ(format_number(1.5), "1.5");
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_bytes(768), "768 B");
  EXPECT_EQ(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
  EXPECT_EQ(escape_attr("\"x'\""), "&quot;x&#39;&quot;");
}

TEST(Html, SequentialAndDivergingScalesClamp) {
  EXPECT_EQ(seq_color(-1.0), seq_color(0.0));
  EXPECT_EQ(seq_color(2.0), seq_color(1.0));
  EXPECT_EQ(div_color(0.0), div_color(0.0));
  EXPECT_NE(div_color(-1.0), div_color(1.0));
  // Categorical slots are fixed and never cycled: past the palette the
  // caller gets the explicit gray fallback, not a reused hue.
  EXPECT_STRNE(series_color(0), series_color(7));
  EXPECT_STREQ(series_color(8), series_color(100));
}

TEST(Html, PageAndChartPrimitivesAreWellFormed) {
  Page page("unit & test <page>");
  std::string body = line_chart(
      "two series", {"a", "b", "c"},
      {{"base & co", {1.0, 2.0, 3.0}, 0}, {"cand", {3.0, 2.0, 1.0}, 1}},
      "latency (us)");
  body += collapsible("values <raw>",
                      data_table({"x", "y"}, {{"a", "1"}, {"<b>", "2&3"}}));
  body += seq_legend(0.0, 1024.0, /*as_bytes=*/true);
  body += div_legend("relieved", "newly loaded");
  page.add_section("Charts & tables", "intro with <angles>", body);
  const std::string html = page.html();
  expect_well_formed(html);
  // Escapes reached the output; raw angle brackets from user text did not.
  EXPECT_NE(html.find("&lt;page&gt;"), std::string::npos);
  EXPECT_EQ(html.find("<page>"), std::string::npos);
  EXPECT_EQ(html.find("<raw>"), std::string::npos);
  EXPECT_EQ(html.find("<b>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Topology heatmap: exact counter copy.

TEST(Topo, HeatmapCopiesRecordedCountersExactly) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, {}));
  const trace::ScheduleRecord rec = record_ring(comm);
  const std::vector<trace::Load> totals = rec.load_totals();
  std::set<std::pair<int, int>> loaded_links;
  for (const trace::Load& l : totals)
    if (!l.qpi) loaded_links.insert({l.id, l.dir});
  ASSERT_FALSE(loaded_links.empty());  // a 4-node ring crosses the network

  const TopoHeatmap heat = build_topo_heatmap(m, rec);
  ASSERT_EQ(heat.links.size(),
            static_cast<std::size_t>(m.network().num_links()));
  ASSERT_EQ(heat.nodes.size(), static_cast<std::size_t>(m.num_nodes()));

  // Every load total appears verbatim (bit-exact, no re-derivation).
  for (const trace::Load& l : totals) {
    const std::size_t ids = l.qpi ? heat.nodes.size() : heat.links.size();
    ASSERT_LT(static_cast<std::size_t>(l.id), ids);
    EXPECT_EQ(l.qpi ? heat.nodes[l.id].bytes[l.dir]
                    : heat.links[l.id].bytes[l.dir],
              l.bytes);
  }
  // And nothing else is loaded: unrecorded (id, dir) pairs stay zero.
  for (const auto& l : heat.links) {
    for (int dir = 0; dir < 2; ++dir) {
      if (!loaded_links.contains({static_cast<int>(l.link), dir})) {
        EXPECT_EQ(l.bytes[dir], 0.0);
      }
    }
  }

  const std::string html =
      render_topo_heatmap(m, heat, "ring over cyclic layout");
  expect_well_formed(html);

  const std::string diff = render_topo_diff(m, heat, heat, "self diff");
  expect_well_formed(diff);
}

TEST(Topo, OutOfRangeCounterIdsAreIgnored) {
  const Machine m = Machine::gpc(1);
  trace::ScheduleRecord rec;
  rec.loads = {{false, 9999, 0, 64.0},  // no such link on a 1-node machine
               {true, 9999, 1, 64.0}};
  rec.stages.push_back({.num_loads = 2});
  const TopoHeatmap heat = build_topo_heatmap(m, rec);
  EXPECT_EQ(heat.max_link_bytes, 0.0);
  EXPECT_EQ(heat.max_qpi_bytes, 0.0);
}

// ---------------------------------------------------------------------------
// Communication matrix: byte conservation.

TEST(Matrix, ConservesRepeatWeightedBytes) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  const trace::ScheduleRecord rec = record_ring(comm);

  const CommMatrix mat = build_comm_matrix(rec, m);
  EXPECT_EQ(mat.n, 16);
  EXPECT_FALSE(mat.by_node);

  // Total bytes in the matrix equal the repeat-weighted sum over the
  // recorded transfers — integers summed in doubles, so exactly.
  double expected = 0.0;
  for (const auto& s : rec.stages)
    for (int i = s.first_transfer; i < s.first_transfer + s.num_transfers;
         ++i)
      expected += static_cast<double>(rec.transfers[i].bytes) * s.repeats;
  EXPECT_EQ(mat.total_bytes, expected);
  double cells = 0.0;
  for (int i = 0; i < mat.n; ++i)
    for (int j = 0; j < mat.n; ++j) cells += mat.cell(i, j);
  EXPECT_EQ(cells, mat.total_bytes);

  expect_well_formed(render_comm_matrix(mat, "ring"));
  expect_well_formed(
      render_comm_matrix_pair(mat, "baseline", mat, "reordered"));
}

TEST(Matrix, AggregatesToNodesAboveThreshold) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, {}));
  const trace::ScheduleRecord rec = record_ring(comm);
  const CommMatrix mat = build_comm_matrix(rec, m, /*aggregate_above=*/8);
  EXPECT_TRUE(mat.by_node);
  EXPECT_EQ(mat.n, 4);
  // Aggregation moves bytes between cells, never in or out.
  const CommMatrix full = build_comm_matrix(rec, m);
  EXPECT_EQ(mat.total_bytes, full.total_bytes);
}

// ---------------------------------------------------------------------------
// Timeline and edge cases.

TEST(Timeline, RendersBandsAndCriticalSplit) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  const trace::ScheduleRecord rec = record_ring(comm);
  const report::CriticalPath path = report::analyze_critical_path(rec, m);
  const std::string html = render_timeline(rec, path, "ring timeline");
  expect_well_formed(html);
  EXPECT_NE(html.find("serialization"), std::string::npos);
}

TEST(EdgeCases, EmptyRecordRendersNotesNotCrashes) {
  const Machine m = Machine::gpc(1);
  const trace::ScheduleRecord rec;  // nothing recorded
  const report::CriticalPath path;
  expect_well_formed(render_timeline(rec, path, "empty"));
  const TopoHeatmap heat = build_topo_heatmap(m, rec);
  expect_well_formed(render_topo_heatmap(m, heat, "empty"));
  const CommMatrix mat = build_comm_matrix(rec, m);
  EXPECT_EQ(mat.n, 0);
  EXPECT_EQ(mat.total_bytes, 0.0);
  expect_well_formed(render_comm_matrix(mat, "empty"));
  expect_well_formed(render_trend({}, report::CompareOptions{}));
}

TEST(EdgeCases, SingleRankRunRenders) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 1, {}));
  trace::Tracer recorder;
  obs::Install traced(&recorder);
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 64, 1);
  eng.begin_stage();
  eng.copy(0, 0, 0, 0, 1);  // a rank talking to itself
  eng.end_stage();
  const trace::ScheduleRecord rec = recorder.take();
  const report::CriticalPath path = report::analyze_critical_path(rec, m);
  expect_well_formed(render_timeline(rec, path, "single rank"));
  const CommMatrix mat = build_comm_matrix(rec, m);
  EXPECT_EQ(mat.n, 1);
  expect_well_formed(render_comm_matrix(mat, "single rank"));
}

// ---------------------------------------------------------------------------
// Trend flagging.

TEST(Trend, FlagsGatedRegressionsAgainstFirstSet) {
  report::SnapshotSet base{"baseline", {sample_snapshot(100.0)}};
  report::SnapshotSet good{"current", {sample_snapshot(100.5)}};  // within 2%
  report::SnapshotSet bad{"current", {sample_snapshot(120.0)}};   // +20%

  const std::string pass = render_trend({base, good});
  expect_well_formed(pass);
  EXPECT_NE(pass.find("PASS"), std::string::npos);
  EXPECT_EQ(pass.find("REGRESSED"), std::string::npos);

  const std::string fail = render_trend({base, bad});
  expect_well_formed(fail);
  EXPECT_NE(fail.find("REGRESSED"), std::string::npos);
  EXPECT_NE(fail.find("latency_us"), std::string::npos);
}

TEST(Trend, SingleSetRendersWithoutFlags) {
  const std::string html = render_trend({{"baseline", {sample_snapshot(1.0)}}});
  expect_well_formed(html);
  EXPECT_EQ(html.find("REGRESSED"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The dashboard: determinism and structure.

TEST(Dashboard, SameSeedRunsProduceByteIdenticalHtml) {
  auto render = [](std::uint64_t seed) {
    const Pair p = make_pair(seed);
    DashboardInputs in;
    in.subtitle = "ring over 16 ranks";
    in.machine = &p.machine;
    in.baseline = &p.baseline;
    in.candidate = &p.candidate;
    in.trend = {{"baseline", {sample_snapshot(100.0)}},
                {"current", {sample_snapshot(100.0)}}};
    return render_dashboard(in);
  };
  // Two fully independent builds — machine, framework, records — of the
  // same seed serialize to the same bytes.
  const std::string a = render(7);
  const std::string b = render(7);
  EXPECT_EQ(a, b);
  expect_well_formed(a);
  // Every view made it onto the page.
  for (const char* needle :
       {"Summary", "Topology load", "Communication matrix",
        "Timeline &amp; critical path", "Mapping attribution",
        "Perf trajectory"})
    EXPECT_NE(a.find(needle), std::string::npos) << needle;
}

TEST(Dashboard, RequiresMachineAndBaseline) {
  DashboardInputs in;
  EXPECT_THROW(render_dashboard(in), Error);
}

TEST(Dashboard, BaselineOnlyDropsComparativeSections) {
  const Pair p = make_pair(1);
  DashboardInputs in;
  in.machine = &p.machine;
  in.baseline = &p.baseline;
  const std::string html = render_dashboard(in);
  expect_well_formed(html);
  EXPECT_EQ(html.find("Mapping attribution"), std::string::npos);
  EXPECT_EQ(html.find("Perf trajectory"), std::string::npos);
}

}  // namespace
}  // namespace tarr::viz
