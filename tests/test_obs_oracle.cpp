// Differential oracle for the ambient observability channel.  A fixed set of
// framework, refinement and allgather runs on GPC 4 (32 ranks) emits its
// decision counters, Fig 7 wall spans and engine events through one sink.
// The stream that sink receives, the Tracer timeline and the Tracer metrics
// (wall seconds aside) are pinned by an FNV-1a digest recorded while the
// sink and the profiler were two separate thread-locals.  The same runs
// under a profiler pin the flat profile the same way, and every decision
// counter the sink receives must reach the profiler with the same total.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/permutation.hpp"
#include "common/serialize.hpp"
#include "core/refine.hpp"
#include "core/topoallgather.hpp"
#include "graph/apppattern.hpp"
#include "prof/export.hpp"
#include "prof/obs.hpp"
#include "simmpi/layout.hpp"
#include "topology/machine.hpp"
#include "trace/tracer.hpp"

namespace tarr {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// `csv` without the lines for which `drop(line)` holds.
template <class Drop>
std::string without(const std::string& csv, Drop drop) {
  std::istringstream in(csv);
  std::string out;
  for (std::string line; std::getline(in, line);)
    if (!drop(line)) out += line + "\n";
  return out;
}

/// The three decision counters that reached only the sink while the sink
/// and the profiler were separate channels.
bool sink_only_before(const std::string& counter) {
  return counter.rfind("selector.", 0) == 0 || counter == "bisection.levels" ||
         counter == "refine.swaps_rejected";
}

/// The emissions the ambient channel carries, in arrival order.
class StreamRecorder final : public trace::TraceSink {
 public:
  void on_wall_span(const trace::WallSpan& s) override {
    stream += "span " + s.name + "\n";
  }
  void add_count(const std::string& name, double delta) override {
    stream += "count " + name + " " + format_number(delta) + "\n";
    totals[name] += delta;
  }
  void observe(const std::string& name, double value) override {
    stream += "observe " + name + " " + format_number(value) + "\n";
  }

  std::string stream;
  std::map<std::string, double> totals;
};

/// Every run of the oracle, traced through `sink`.
void run_all(trace::TraceSink* sink) {
  using mapping::Pattern;
  using GraphKind = core::ReorderFramework::GraphMapperKind;
  const topology::Machine m = topology::Machine::gpc(4);
  const simmpi::Communicator comm(
      m, simmpi::make_layout(m, m.total_cores(), simmpi::LayoutSpec{}));

  core::ReorderFramework fw(m);
  fw.set_trace_sink(sink);
  for (Pattern p : {Pattern::RecursiveDoubling, Pattern::Ring,
                    Pattern::BinomialBcast, Pattern::BinomialGather})
    (void)fw.reorder(comm, p);
  const graph::WeightedGraph stencil = graph::stencil2d_pattern(8, 4);
  for (GraphKind kind : {GraphKind::Bisection, GraphKind::Greedy})
    (void)fw.reorder_for_graph(comm, stencil, kind);
  (void)fw.reorder_hierarchical(comm, Pattern::RecursiveDoubling, true,
                                Pattern::Ring);
  {
    // Core-id span of the ring over a node-cyclic layout: some random swaps
    // shorten it and some do not, so refinement both accepts and rejects.
    const simmpi::Communicator cyclic(
        m, simmpi::make_layout(m, m.total_cores(),
                               simmpi::LayoutSpec{simmpi::NodeOrder::Cyclic,
                                                  simmpi::SocketOrder::Bunch}));
    const core::MappingObjective ring_span =
        [](const simmpi::Communicator& c, const std::vector<Rank>&) {
          Usec span = 0.0;
          for (Rank r = 0; r < c.size(); ++r)
            span += std::abs(c.core_of(r) - c.core_of((r + 1) % c.size()));
          return span;
        };
    obs::Install ambient(sink);
    core::RefineOptions opts;
    opts.max_swaps = 24;
    opts.seed = 5;
    (void)core::refine_by_simulation(
        cyclic,
        core::ReorderedComm{cyclic, identity_permutation(cyclic.size())},
        ring_span, opts);
  }

  // A framework without a sink of its own: its reorders reach `sink` only
  // through the ambient channel the allgather opens.
  core::ReorderFramework plain(m);
  core::TopoAllgather ag(plain, comm, core::TopoAllgatherConfig{});
  ag.set_trace_sink(sink);
  for (Bytes msg : {64, 4096, 262144}) (void)ag.latency(msg);
}

TEST(ObsOracle, SinkStreamTimelineAndMetricsMatchRecordedDigest) {
  StreamRecorder rec;
  trace::Tracer tracer;
  trace::TeeSink tee({&rec, &tracer});
  run_all(&tee);
  for (const char* counter :
       {"mapping.placements", "mapping.tie_breaks", "bisection.calls",
        "bisection.levels", "refine.swaps_accepted", "refine.swaps_rejected",
        "selector.rd", "selector.ring"})
    EXPECT_GT(rec.totals[counter], 0.0) << counter;
  const std::string metrics =
      without(tracer.metrics().csv(), [](const std::string& line) {
        return line.rfind("counter,wall.", 0) == 0;
      });
  EXPECT_EQ(fnv1a(rec.stream + "--\n" + tracer.timeline_json() + "--\n" +
                  metrics),
            0x4b491d375495e6efull);
}

TEST(ObsOracle, ProfileMatchesRecordedDigestAndDecisionCountersReachBoth) {
  StreamRecorder bare;
  run_all(&bare);

  StreamRecorder rec;
  prof::Profiler profiler;
  {
    obs::Install ambient(&profiler);
    run_all(&rec);
  }
  EXPECT_EQ(rec.stream, bare.stream);  // the profiler leg changes no emission
  const prof::Profile profile = profiler.snapshot();
  for (const auto& [counter, total] : rec.totals)
    EXPECT_EQ(profile.counter_total(counter), total) << counter;

  const std::string flat =
      without(prof::flat_csv(profile), [](const std::string& line) {
        // path,depth,calls,metric,self,total: scope names hold no comma.
        std::istringstream fields(line);
        std::string metric;
        for (int i = 0; i < 4; ++i) std::getline(fields, metric, ',');
        return metric == "work" || metric.rfind("mem.", 0) == 0 ||
               sink_only_before(metric);
      });
  // Without the rows of the work counters mapping.scan_reads and
  // bisection.grow_steps, which came later, this profile hashes to
  // 0x32e583b8f4cb1bf1, the digest recorded under two thread-locals.
  // Without the cost.routes_walked rows, which came after those, it hashes
  // to 0xe2a581c4e06ff3a4, the digest recorded under per-transfer pricing.
  EXPECT_EQ(fnv1a(flat), 0x1f95e360a1d03a06ull);
}

}  // namespace
}  // namespace tarr
