// Differential oracle for the ambient observability channel.  A fixed set of
// framework, refinement and allgather runs on GPC 4 (32 ranks) emits its
// decision counters, Fig 7 wall spans and engine events through one sink.
// The stream that sink receives, the Tracer timeline and the Tracer metrics
// (wall seconds aside) are pinned by an FNV-1a digest first recorded while
// the sink and the profiler were two separate thread-locals (the test says
// which later changes re-recorded it, and why).  The same runs
// under a profiler pin the flat profile the same way, and every decision
// counter the sink receives must reach the profiler with the same total.
//
// A second digest pins the engines, the fault campaign and the probe, which
// take their sink from the channel: every collective schedule, two fault
// campaigns, two probed scenarios, a probe and an adaptive controller.  It
// was recorded while each of them was handed its sink explicitly; the
// `count mapping.*` lines are left out of it, because the heuristic runs
// behind the campaign's and the probe's mappings reached no sink then.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "collectives/schedules.hpp"
#include "common/permutation.hpp"
#include "common/serialize.hpp"
#include "core/refine.hpp"
#include "core/topoallgather.hpp"
#include "fault/campaign.hpp"
#include "graph/apppattern.hpp"
#include "probe/probe.hpp"
#include "prof/export.hpp"
#include "prof/obs.hpp"
#include "simmpi/layout.hpp"
#include "topology/fattree.hpp"
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

/// Every event a sink receives, in arrival order; wall spans by name only.
/// A stage prints as the engine once sent it: the copy lines of its
/// transfers (each copy was its own event, sent as the schedule submitted
/// it), then its transfer lines, then its loads as the counter lines once
/// sent ahead of the stage, each load at the stage start, then each back to
/// zero at its end, then the stage line.  A time event's permutation prints
/// as the permute line once sent ahead of it.
class StreamRecorder final : public trace::TraceSink {
 public:
  void on_stage(const trace::StageEvent& e) override {
    for (const trace::Copy& c : stage_copies_)
      line("copy", c.stage, c.src, c.dst, c.src_off, c.dst_off, c.nblocks,
           c.bytes, c.combining);
    stream += stage_transfers_;
    stage_copies_.clear();
    stage_transfers_.clear();
    for (const trace::Load& l : e.loads) counter(l, e.start, l.bytes);
    for (const trace::Load& l : e.loads)
      counter(l, e.start + e.duration, 0.0);
    line("stage", e.stage, e.transfers, e.repeats, e.start, e.duration,
         e.retry_wait);
  }
  void on_transfer(const trace::TransferEvent& e) override {
    stage_copies_.insert(stage_copies_.end(), e.copies.begin(),
                         e.copies.end());
    append_line(stage_transfers_,
                std::string("transfer ") + trace::to_string(e.channel),
                e.stage, e.src_rank, e.dst_rank, e.src_core, e.dst_core,
                e.bytes, e.contention, e.attempts, e.start, e.duration,
                e.uncontended);
  }
  void on_phase(const trace::PhaseEvent& e) override {
    line("phase " + e.name, e.start, e.duration);
  }
  void on_wall_span(const trace::WallSpan& s) override {
    stream += "span " + s.name + "\n";
  }
  void on_time(const trace::TimeEvent& e) override {
    if (!e.dst_of_block.empty()) {
      std::string head = "permute";
      for (int b : e.dst_of_block) {
        head += ' ';
        head += std::to_string(b);
      }
      line(head, e.start, e.duration);
    }
    line("time " + e.what, e.start, e.duration);
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

 private:
  void counter(const trace::Load& l, Usec ts, double bytes) {
    line(l.qpi ? "counter qpi" : "counter link", l.id, l.dir, ts, bytes);
  }

  template <class... Fields>
  void line(const std::string& head, Fields... fields) {
    append_line(stream, head, fields...);
  }

  template <class... Fields>
  static void append_line(std::string& out, const std::string& head,
                          Fields... fields) {
    out += head;
    ((out += ' ', out += format_number(static_cast<double>(fields))), ...);
    out += '\n';
  }

  /// The open stage's copies and transfer lines.
  std::vector<trace::Copy> stage_copies_;
  std::string stage_transfers_;
};

/// The lines of `stream` of the kinds the first digest was recorded over:
/// wall spans, counts and observations.
std::string decisions_only(const std::string& stream) {
  return without(stream, [](const std::string& line) {
    return line.rfind("span ", 0) != 0 && line.rfind("count ", 0) != 0 &&
           line.rfind("observe ", 0) != 0;
  });
}

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
  (void)fw.reorder_hierarchical(
      comm, *mapping::make_heuristic(Pattern::RecursiveDoubling),
      mapping::make_heuristic(Pattern::Ring).get());
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

/// `stream` without its `count mapping.*` lines.
std::string sans_mapping(const std::string& stream) {
  return without(stream, [](const std::string& line) {
    return line.rfind("count mapping.", 0) == 0;
  });
}

/// The runs of the second digest.  Each appends its name and the stream its
/// sink received, minus the `count mapping.*` lines, to `digest`, and checks
/// that the `mapping.placements` it dropped count the ranks its heuristic
/// calls placed.
class ChannelRuns {
 public:
  std::string digest;

  /// Every schedule on GPC `nodes`, full nodes: at the identity and, when
  /// reorderable, under its pattern's heuristic, in Timed mode with
  /// transient faults off and on; then in Data mode at the identity.
  void schedules(int nodes) {
    const topology::Machine m = topology::Machine::gpc(nodes);
    core::ReorderFramework fw(m);
    const int p = m.total_cores();
    for (const collectives::Schedule& sched : collectives::schedules()) {
      // Hierarchical runners need node-contiguous ranks.
      const simmpi::Communicator comm(
          m, simmpi::make_layout(
                 m, p,
                 sched.hierarchical
                     ? simmpi::LayoutSpec{}
                     : simmpi::LayoutSpec{simmpi::NodeOrder::Cyclic,
                                          simmpi::SocketOrder::Bunch}));
      std::vector<core::ReorderedComm> placements{
          core::ReorderedComm{comm, identity_permutation(p), 0.0}};
      if (sched.reorderable) placements.push_back(fw.reorder(comm, sched.pattern));
      for (std::size_t at = 0; at < placements.size(); ++at)
        for (bool faults : {false, true})
          schedule(sched, placements[at], simmpi::ExecMode::Timed, faults,
                   std::string(sched.name) + " gpc" + std::to_string(nodes) +
                       (at == 0 ? " identity" : " heuristic") +
                       (faults ? " faults" : ""));
      schedule(sched, placements[0], simmpi::ExecMode::Data, false,
               std::string(sched.name) + " gpc" + std::to_string(nodes) +
                   " data");
    }
  }

  /// A small campaign over 8 nodes, 16 ranks, with drops.
  void campaign(fault::FailureKind kind) {
    fault::CampaignConfig cfg;
    cfg.num_nodes = 8;
    cfg.tree.nodes_per_leaf = 2;
    cfg.max_ranks = 16;
    cfg.failure_counts = {0, 2};
    cfg.trials = 1;
    cfg.seed = 1234;
    cfg.kind = kind;
    cfg.transient.drop_prob = 0.05;
    StreamRecorder rec;
    fault::CampaignResult res;
    {
      obs::Install traced(&rec);
      res = fault::run_fault_campaign(cfg);
    }
    // A stale and a remap mapping per row that did not partition.
    double placed = 0.0;
    for (const fault::CampaignRow& row : res.rows)
      if (!row.partitioned) placed += 2.0 * row.ranks;
    EXPECT_GT(placed, 0.0);
    add(std::string("campaign ") + fault::to_string(kind), rec, placed);
  }

  /// A small probed scenario over 8 nodes of 2 cores, 4 epochs.
  void scenario(bool fail_probe) {
    probe::ScenarioConfig cfg;
    cfg.num_nodes = 8;
    cfg.tree.num_leaves = 2;
    cfg.tree.nodes_per_leaf = 4;
    cfg.tree.num_cores = 2;
    cfg.tree.uplinks_per_core = 2;
    cfg.tree.lines_per_core = 2;
    cfg.tree.spines_per_core = 2;
    cfg.tree.leaves_per_line = 1;
    cfg.shape = topology::NodeShape{.sockets = 1, .cores_per_socket = 2};
    cfg.epochs = 4;
    cfg.congestion.link_prob = 0.4;
    cfg.controller.probe.samples_per_pair = 3;
    if (fail_probe) cfg.controller.probe.timeout_prob = 1.0;
    StreamRecorder rec;
    probe::ScenarioResult res;
    {
      obs::Install traced(&rec);
      res = probe::run_probed_scenario(cfg);
    }
    // Per pattern: an oracle mapping every epoch, plus one mapping per
    // successful probe, the initial one included.
    const int p = cfg.num_nodes * 2;
    double placed = 0.0;
    for (const probe::PatternSummary& ps : res.patterns)
      placed += static_cast<double>(cfg.epochs + ps.remaps) * p;
    add(fail_probe ? "scenario fail-probe" : "scenario", rec, placed);
  }

  /// One noisy probe with timeouts, on its own.
  void probe_alone() {
    const topology::Machine m = small_machine();
    probe::ProbeConfig cfg;
    cfg.noise = 0.1;
    cfg.outlier_prob = 0.1;
    cfg.timeout_prob = 0.2;
    cfg.seed = 3;
    StreamRecorder rec;
    {
      obs::Install traced(&rec);
      (void)probe::probe_distances(m, quiet_truth(m), cfg);
    }
    add("probe", rec, 0.0);
  }

  /// An adaptive controller that calibrates, keeps and remaps.
  void controller(StreamRecorder& rec) {
    const topology::Machine m = small_machine();
    const auto mapper = mapping::make_heuristic(mapping::Pattern::Ring);
    const fault::DegradedTopology quiet(m, fault::FaultMask{});
    std::vector<int> slots(static_cast<std::size_t>(m.total_cores()));
    std::iota(slots.begin(), slots.end(), 0);
    probe::ControllerConfig cfg;
    cfg.probe.noise = 0.0;
    cfg.probe.outlier_prob = 0.0;
    cfg.drift_threshold = 0.1;
    cfg.hysteresis = 1;
    int remaps = 0;
    {
      obs::Install traced(&rec);
      probe::AdaptiveController ctl(*mapper, cfg, quiet, slots);
      EXPECT_EQ(ctl.observe(0, quiet, 100.0).action, probe::Action::Calibrate);
      EXPECT_EQ(ctl.observe(1, quiet, 101.0).action, probe::Action::Keep);
      EXPECT_EQ(ctl.observe(2, quiet, 200.0).action, probe::Action::Remap);
      remaps = ctl.remaps();
    }
    add("controller", rec,
        static_cast<double>(remaps) * static_cast<double>(slots.size()));
  }

  static topology::Machine small_machine() {
    topology::GpcTreeConfig tree;
    tree.num_leaves = 2;
    tree.nodes_per_leaf = 4;
    tree.num_cores = 2;
    tree.uplinks_per_core = 2;
    tree.lines_per_core = 2;
    tree.spines_per_core = 2;
    tree.leaves_per_line = 1;
    return topology::Machine(
        topology::NodeShape{.sockets = 1, .cores_per_socket = 2},
        topology::build_gpc_network(8, tree));
  }

  static topology::DistanceMatrix quiet_truth(const topology::Machine& m) {
    return probe::effective_node_distances(
        fault::DegradedTopology(m, fault::FaultMask{}));
  }

 private:
  void schedule(const collectives::Schedule& sched,
                const core::ReorderedComm& rc, simmpi::ExecMode mode,
                bool faults, const std::string& name) {
    StreamRecorder rec;
    {
      obs::Install traced(&rec);
      simmpi::Engine eng(rc.comm, simmpi::CostConfig{}, mode, 1024,
                         sched.buf_blocks(rc.comm.size()));
      if (faults) {
        simmpi::TransientFaultConfig t;
        t.drop_prob = 0.05;
        t.corrupt_prob = 0.02;
        t.seed = 7;
        eng.set_transient_faults(t);
      }
      (void)sched.run(eng, rc.oldrank);
    }
    add(name, rec, 0.0);
  }

  void add(const std::string& name, const StreamRecorder& rec,
           double placed) {
    const auto it = rec.totals.find("mapping.placements");
    EXPECT_EQ(it == rec.totals.end() ? 0.0 : it->second, placed) << name;
    digest += "== " + name + "\n" + sans_mapping(rec.stream);
  }
};

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
  // Re-recorded twice: when a mapping run began to send its placements and
  // tie-breaks once each (0x4b491d375495e6ef before; only those count
  // lines moved, with the same per-name totals), and when the Tracer began
  // to fold every execution of a repeat-compressed ring stage into its
  // link, qpi, channel and transfer.* rows (0x861388cbfe149ace before).
  EXPECT_EQ(fnv1a(decisions_only(rec.stream) + "--\n" +
                  tracer.timeline_json() + "--\n" + metrics),
            0x17e4386ccf2152dcull);
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
  // Re-recorded when bisection growing moved from a scan of the subset to
  // a heap of the front (0x1f95e360a1d03a06 before): only the three
  // bisection.grow_steps rows moved, 832 -> 174.
  EXPECT_EQ(fnv1a(flat), 0x314ac0ac254f127cull);

  // The adaptive controller's decisions, and the probe counts its re-probes
  // send to both legs, reach the profiler with the sink's totals.
  StreamRecorder ctl_rec;
  prof::Profiler ctl_prof;
  {
    obs::Install ambient(&ctl_prof);
    ChannelRuns().controller(ctl_rec);
  }
  const prof::Profile ctl_profile = ctl_prof.snapshot();
  int both = 0;
  for (const auto& [counter, total] : ctl_rec.totals) {
    if (counter.rfind("probe.decision.", 0) != 0 &&
        counter != "probe.measurements" && counter != "probe.retries")
      continue;
    EXPECT_EQ(ctl_profile.counter_total(counter), total) << counter;
    ++both;
  }
  EXPECT_EQ(both, 5);  // calibrate, keep, remap, measurements, retries
}

TEST(ObsOracle, EnginesCampaignsAndProbesMatchRecordedDigest) {
  ChannelRuns runs;
  runs.schedules(2);
  runs.schedules(4);
  runs.campaign(fault::FailureKind::Links);
  runs.campaign(fault::FailureKind::Nodes);
  runs.scenario(/*fail_probe=*/false);
  runs.scenario(/*fail_probe=*/true);
  runs.probe_alone();
  StreamRecorder ctl;
  runs.controller(ctl);
  // Re-recorded when a Timed run with transient faults armed began to
  // issue every ring stage, as Data mode does, instead of repeating the
  // first stage's fault draws (0x30f3dfb9c3200f62 before): only the faults
  // runs of the four ring-compressed schedules and the campaigns' ring
  // rows, with their fault.* totals, moved.
  EXPECT_EQ(fnv1a(runs.digest), 0x54d693c26a638917ull);
}

}  // namespace
}  // namespace tarr
