// tarr::insight: histogram bucket exactness and merge algebra, imbalance
// analytics with EXPECT_EQ evidence against the traced record, the
// diagnosis engine on a congested fig8-style run (byte-identical across
// same-seed runs) and on one fixture per finding rule, and trajectory
// change-point detection.

#include "insight/insight.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/gather_bcast.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "fault/degraded.hpp"
#include "probe/congestion.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "simmpi/transient.hpp"
#include "topology/fattree.hpp"
#include "trace/record.hpp"
#include "trace/tracer.hpp"
#include "viz/findings.hpp"

namespace tarr::insight {
namespace {

using report::SnapshotSet;
using simmpi::Communicator;
using simmpi::CostConfig;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::make_layout;
using topology::Machine;

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketBoundariesRoundTrip) {
  const Histogram h;
  // Every bucket's lower bound must map back to that bucket — the exactness
  // the quantile guarantee rests on — across binades below and above 1.0.
  for (int idx = -5 * 32; idx <= 8 * 32; ++idx) {
    EXPECT_EQ(h.index_of(h.lower_bound(idx)), idx) << "index " << idx;
    EXPECT_LT(h.lower_bound(idx), h.upper_bound(idx));
  }
}

TEST(Histogram, QuantilesExactOnBucketAlignedFixture) {
  // Hand-built fixture: values on bucket lower bounds (dyadic rationals),
  // where the histogram nearest-rank quantile must EQUAL the brute-force
  // sorted nearest-rank — not approximately, exactly.
  Histogram h;
  std::vector<double> values;
  for (int e = -2; e <= 3; ++e)
    for (int k = 0; k < 32; k += 5) {
      const double v = std::ldexp(1.0 + k / 32.0, e - 1);
      values.push_back(v);
      h.record(v);
    }
  for (const auto& spec : kStandardQuantiles)
    EXPECT_EQ(h.quantile(spec.q), exact_quantile(values, spec.q))
        << spec.label;
  EXPECT_EQ(h.quantile(0.0), exact_quantile(values, 0.0));
  EXPECT_EQ(h.quantile(1.0), exact_quantile(values, 1.0));
  EXPECT_EQ(h.min(), exact_quantile(values, 0.0));
  EXPECT_EQ(h.max(), exact_quantile(values, 1.0));
}

TEST(Histogram, QuantileIsBucketFloorOfBruteForce) {
  // For arbitrary values the histogram quantile is the bucket lower bound
  // of the true nearest-rank value — a deterministic relation we can pin
  // exactly even off the bucket grid.
  Histogram h;
  std::vector<double> values;
  std::uint64_t state = 42;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double v =
        1e-3 + static_cast<double>(state >> 11) /
                   static_cast<double>(1ull << 53) * 1e4;
    values.push_back(v);
    h.record(v);
  }
  for (const auto& spec : kStandardQuantiles) {
    const double truth = exact_quantile(values, spec.q);
    EXPECT_EQ(h.quantile(spec.q), h.lower_bound(h.index_of(truth)))
        << spec.label;
    EXPECT_LE(h.quantile(spec.q), truth);
    EXPECT_GT(h.upper_bound(h.index_of(h.quantile(spec.q))), truth);
  }
}

TEST(Histogram, RecordOrderDoesNotMatter) {
  // operator== compares integer counts and exact min/max, so the state and
  // everything derived from it must not depend on arrival order.
  std::vector<double> values;
  std::uint64_t s = 1;
  for (int i = 0; i < 289; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    values.push_back(static_cast<double>(s >> 40) / 256.0);
  }
  Histogram forward, backward;
  for (const double v : values) forward.record(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it)
    backward.record(*it);
  EXPECT_TRUE(forward == backward);
  EXPECT_EQ(forward.approx_sum(), backward.approx_sum());
  EXPECT_EQ(forward.quantile(0.99), backward.quantile(0.99));
}

TEST(Histogram, RecordNEqualsRepeatedRecord) {
  Histogram a, b;
  a.record_n(3.75, 5);
  a.record_n(0.0, 2);
  for (int i = 0; i < 5; ++i) b.record(3.75);
  for (int i = 0; i < 2; ++i) b.record(0.0);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.count(), 7);
  EXPECT_EQ(a.zero_count(), 2);
}

TEST(Histogram, RejectsNonFiniteAndNegative) {
  Histogram h;
  EXPECT_THROW(h.record(std::numeric_limits<double>::quiet_NaN()), Error);
  EXPECT_THROW(h.record(std::numeric_limits<double>::infinity()), Error);
  EXPECT_THROW(h.record(-1.0), Error);
  EXPECT_THROW(h.record_n(1.0, 0), Error);
  EXPECT_THROW(h.quantile(1.5), Error);
  EXPECT_TRUE(h.empty());                // nothing was corrupted
}

// ---------------------------------------------------------------------------
// MetricsRegistry distributions + hardening

TEST(Metrics, RejectsNonFiniteCountsAndSamples) {
  trace::MetricsRegistry reg;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(reg.add_count("x", nan), Error);
  EXPECT_THROW(reg.add_count("x", inf), Error);
  EXPECT_THROW(reg.observe("d", nan), Error);
  EXPECT_THROW(reg.observe("d", -0.5), Error);
  EXPECT_TRUE(reg.empty());  // rejected input left no trace
  reg.add_count("x", 2.0);   // finite values still work
  reg.observe("d", 0.5);
  EXPECT_EQ(reg.count("x"), 2.0);
  ASSERT_NE(reg.distribution("d"), nullptr);
  EXPECT_EQ(reg.distribution("d")->count(), 1);
}

TEST(Metrics, DistributionRowsAppendAfterLegacyCategories) {
  trace::MetricsRegistry reg;
  reg.add_count("zz.last-counter", 1.0);
  const std::string before = reg.csv();
  reg.observe("stage.duration", 2.0);
  const std::string after = reg.csv();
  // Pre-existing rows are byte-unchanged: the old CSV is a prefix.
  EXPECT_EQ(after.compare(0, before.size(), before), 0);
  EXPECT_NE(after.find("\ndist,stage.duration,"), std::string::npos);
  EXPECT_NE(after.find("\ndist,stage.duration p99,"), std::string::npos);
  EXPECT_NE(after.find("\ndistbucket,stage.duration b"), std::string::npos);
  // distbucket rows come after all dist rows.
  EXPECT_LT(after.rfind("\ndist,"), after.find("\ndistbucket,"));
}

TEST(Metrics, TracedDistributionsAreByteIdenticalUnderFaults) {
  // Two same-seed runs under a transient-fault campaign: the full metrics
  // CSV — distribution rows included — must match byte for byte.
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  auto run = [&](trace::Tracer& tracer) {
    simmpi::TransientFaultConfig faults;
    faults.drop_prob = 0.2;
    faults.seed = 5;
    Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
    eng.set_transient_faults(faults);
    eng.set_trace_sink(&tracer);
    collectives::run_allgather(
        eng, {collectives::AllgatherAlgo::RecursiveDoubling,
              collectives::OrderFix::None});
  };
  trace::Tracer a, b;
  run(a);
  run(b);
  const std::string csv = a.metrics().csv();
  EXPECT_EQ(csv, b.metrics().csv());
  // The campaign actually exercised the retransmission split.
  EXPECT_NE(csv.find("dist,transfer.retransmission,"), std::string::npos);
  EXPECT_NE(csv.find("dist,stage.duration,"), std::string::npos);
}

TEST(Metrics, StageDurationQuantilesMatchBruteForceOnTracedRun) {
  // Collect per-execution stage durations straight from the record and
  // check the registry's histogram agrees with the brute-force sort at the
  // bucket-floor level (exactly — same relation as the fixture test).
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  trace::Tracer tracer;
  trace::ScheduleRecorder recorder;
  trace::TeeSink tee({&tracer, &recorder});
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  eng.set_trace_sink(&tee);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None});
  const trace::ScheduleRecord rec = recorder.take();

  std::vector<double> durations;
  for (const auto& s : rec.stages) {
    const double per_exec = s.duration / s.repeats;
    for (int i = 0; i < s.repeats; ++i) durations.push_back(per_exec);
  }
  const Histogram* h = tracer.metrics().distribution("stage.duration");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->count(), static_cast<long long>(durations.size()));
  for (const auto& spec : kStandardQuantiles) {
    const double truth = exact_quantile(durations, spec.q);
    EXPECT_EQ(h->quantile(spec.q),
              truth == 0.0 ? 0.0 : h->lower_bound(h->index_of(truth)))
        << spec.label;
  }
}

// ---------------------------------------------------------------------------
// Imbalance analytics

TEST(Imbalance, JainIndexKnownValues) {
  EXPECT_EQ(jain_index({}), 1.0);
  EXPECT_EQ(jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_EQ(jain_index({8.0, 0.0, 0.0, 0.0}), 0.25);  // one hot resource
  EXPECT_NEAR(jain_index({4.0, 2.0}), 0.9, 1e-12);
}

TEST(Imbalance, ExactSumsMatchIndependentRecomputation) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  trace::ScheduleRecorder recorder;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 1024, 16);
  eng.set_trace_sink(&recorder);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None});
  const trace::ScheduleRecord rec = recorder.take();
  const ImbalanceReport rep = analyze_imbalance(rec);

  // Independent recomputation with a different data structure (maps keyed
  // by rank, stage loop over record.stages directly).
  std::map<Rank, double> busy;
  for (const auto& s : rec.stages) {
    std::map<Rank, double> stage_busy;
    for (const auto& t : rec.transfers_of(s)) {
      if (t.duration <= 0.0) continue;
      auto bump = [&](Rank r) {
        auto& b = stage_busy[r];
        if (t.duration > b) b = t.duration;
      };
      bump(t.src);
      bump(t.dst);
    }
    for (const auto& [r, b] : stage_busy)
      busy[r] += b * static_cast<double>(s.repeats);
  }
  ASSERT_FALSE(rep.ranks.empty());
  for (const auto& [r, b] : busy)
    EXPECT_EQ(rep.ranks[static_cast<std::size_t>(r)].busy, b) << "rank " << r;

  // Jain over cable loads EXPECT_EQ-matches the record's own aggregates.
  std::vector<double> loads;
  for (const auto& [key, bytes] : rec.link_bytes) loads.push_back(bytes);
  EXPECT_EQ(rep.jain_links, jain_index(loads));
  // Hot resources carry the exact aggregate bytes.
  for (const auto& h : rep.hot_resources) {
    if (h.qpi) continue;
    EXPECT_EQ(h.bytes, rec.link_bytes.at({h.id, h.dir}));
  }
}

// ---------------------------------------------------------------------------
// Diagnosis on a congested fig8-style run

struct CongestedRun {
  // Machine is move-only and DegradedTopology points at its base, so both
  // live behind stable addresses for the lifetime of the fixture.
  std::unique_ptr<Machine> base;
  std::unique_ptr<fault::DegradedTopology> topo;
  trace::ScheduleRecord record;
  trace::MetricsRegistry metrics;
  const Machine& machine() const { return topo->machine(); }
};

CongestedRun congested_run() {
  CongestedRun run;
  // Right-sized fabric for the straggler scenario: wide host links (so
  // injection never bottlenecks) and capacity-2 leaf uplinks shared by the
  // 8 flows of each node-to-node ring hop.  Congestion pricing is
  // contention-only, so the fixture needs flows *sharing* a degradable
  // fabric link; a ring rank keeps the same neighbor in all 63 stages, so
  // a degraded uplink makes its ranks consistent stragglers.
  run.base = std::make_unique<Machine>(Machine(
      topology::NodeShape{},
      topology::build_gpc_network(
          8, {.num_leaves = 4, .nodes_per_leaf = 2, .num_cores = 1,
              .uplinks_per_core = 2, .lines_per_core = 1,
              .spines_per_core = 1, .leaves_per_line = 4,
              .host_link_capacity = 8})));
  const probe::CongestionConfig cong;  // seeded multi-tenant defaults
  // Epoch 3 (seed 7) congests some but not all leaf uplinks — the partial
  // degradation that separates stragglers from the median.
  run.topo = std::make_unique<fault::DegradedTopology>(
      *run.base,
      probe::congestion_mask(run.base->network(), cong, /*epoch=*/3));
  const fault::DegradedTopology& topo = *run.topo;
  const Communicator comm(
      topo.machine(),
      make_layout(topo.machine(), 64,
                  {simmpi::NodeOrder::Cyclic, simmpi::SocketOrder::Bunch}));
  trace::Tracer tracer;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 16 * 1024, 64);
  eng.set_trace_sink(&tracer);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None});
  run.record = tracer.record();
  run.metrics = tracer.metrics();
  return run;
}

TEST(Diagnose, CongestedRunSurfacesImbalanceWithExactEvidence) {
  const CongestedRun run = congested_run();
  const Diagnosis d = diagnose(run.record, run.machine(), 8, &run.metrics);
  // The seeded congestion must surface at least one straggler / imbalance
  // finding — the acceptance scenario of this subsystem.
  const Finding* found = nullptr;
  for (const auto& f : d.findings)
    if (f.kind == FindingKind::Straggler || f.kind == FindingKind::Imbalance)
      found = &f;
  ASSERT_NE(found, nullptr) << render_findings(d);
  EXPECT_GE(found->severity, Severity::Warning);

  // Every straggler evidence number EXPECT_EQ-matches the analytics.
  for (const auto& f : d.findings) {
    if (f.kind != FindingKind::Straggler) continue;
    for (const auto& ev : f.evidence) {
      if (ev.name.rfind("rank", 0) != 0) continue;
      const Rank r = std::atoi(ev.name.c_str() + 4);
      EXPECT_EQ(ev.value,
                d.imbalance.ranks[static_cast<std::size_t>(r)].busy)
          << ev.name;
    }
  }
  // Findings are ranked most-severe first.
  for (std::size_t i = 1; i < d.findings.size(); ++i)
    EXPECT_GE(d.findings[i - 1].severity, d.findings[i].severity);
}

TEST(Diagnose, SameSeedDiagnosesAreByteIdentical) {
  const CongestedRun a = congested_run();
  const CongestedRun b = congested_run();
  const Diagnosis da = diagnose(a.record, a.machine(), 8, &a.metrics);
  const Diagnosis db = diagnose(b.record, b.machine(), 8, &b.metrics);
  EXPECT_EQ(render_findings(da), render_findings(db));
  EXPECT_EQ(render_findings(da, report::RenderFormat::Markdown),
            render_findings(db, report::RenderFormat::Markdown));
  EXPECT_EQ(a.metrics.csv(), b.metrics.csv());
  EXPECT_EQ(viz::render_findings_section(da),
            viz::render_findings_section(db));
  EXPECT_FALSE(viz::render_findings_section(da).empty());
}

TEST(Diagnose, BalancedRunProducesNoStragglers) {
  // Four ranks on one socket: every ring hop costs the same, so the
  // conservative thresholds must stay quiet about stragglers.  (A whole
  // 8-core node is NOT balanced — the two cross-socket hops make the
  // boundary ranks real stragglers, which the congested test relies on.)
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, {}));
  trace::ScheduleRecorder recorder;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 4);
  eng.set_trace_sink(&recorder);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None});
  const Diagnosis d = diagnose(recorder.take(), m);
  for (const auto& f : d.findings)
    EXPECT_NE(f.kind, FindingKind::Straggler) << f.title;
}

// One fixture per remaining rule, each crossing its threshold in findings.cpp
// and asserting the evidence the finding carries.

/// The first finding of `kind`, or nullptr.
const Finding* find_kind(const Diagnosis& d, FindingKind kind) {
  for (const auto& f : d.findings)
    if (f.kind == kind) return &f;
  return nullptr;
}

/// The value of `f`'s evidence named `name` (NaN when absent).
double evidence(const Finding& f, const std::string& name) {
  for (const auto& e : f.evidence)
    if (e.name == name) return e.value;
  return std::numeric_limits<double>::quiet_NaN();
}

/// Record one Timed run of `algo` allgather over `p` ranks of `m`.
trace::ScheduleRecord allgather_record(
    const Machine& m, int p, simmpi::LayoutSpec layout,
    collectives::AllgatherAlgo algo,
    const simmpi::TransientFaultConfig& faults = {}) {
  const Communicator comm(m, make_layout(m, p, layout));
  trace::ScheduleRecorder recorder;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 4096, p);
  eng.set_transient_faults(faults);
  eng.set_trace_sink(&recorder);
  collectives::run_allgather(eng, {algo, collectives::OrderFix::None});
  return recorder.take();
}

TEST(DiagnoseRules, UnfairResourceLoad) {
  // Linear gather over 16 nodes of one leaf: 15 host uplinks carry 8
  // blocks each, the root's downlink all 120, so Jain = 4 * 15 / 16^2.
  const Machine m = Machine::gpc(16);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, {}));
  trace::ScheduleRecorder recorder;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 4096, p);
  eng.set_trace_sink(&recorder);
  collectives::run_gather(eng, collectives::TreeAlgo::Linear,
                          collectives::OrderFix::None,
                          identity_permutation(p));
  const Diagnosis d = diagnose(recorder.take(), m);
  const Finding* f = find_kind(d, FindingKind::UnfairResourceLoad);
  ASSERT_NE(f, nullptr) << render_findings(d);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_EQ(evidence(*f, "jain.links"), 0.234375);
  EXPECT_EQ(evidence(*f, "jain.links"), d.imbalance.jain_links);
}

TEST(DiagnoseRules, ContentionDominated) {
  // Cyclic ring over two nodes: every hop crosses the fabric, so the eight
  // flows of a node share its host link in every stage.
  const Machine m = Machine::gpc(2);
  const Diagnosis d = diagnose(
      allgather_record(m, 16,
                       {simmpi::NodeOrder::Cyclic, simmpi::SocketOrder::Bunch},
                       collectives::AllgatherAlgo::Ring),
      m);
  const Finding* f = find_kind(d, FindingKind::ContentionDominated);
  ASSERT_NE(f, nullptr) << render_findings(d);
  EXPECT_EQ(evidence(*f, "critical.total_usec"), d.critical_path.total);
  EXPECT_EQ(evidence(*f, "critical.contention_usec"),
            d.critical_path.contention);
  EXPECT_EQ(evidence(*f, "critical.serialization_usec"),
            d.critical_path.serialization);
  EXPECT_DOUBLE_EQ(d.critical_path.contention, 134.4);
  EXPECT_DOUBLE_EQ(d.critical_path.serialization, 49.2);
}

TEST(DiagnoseRules, RetransmissionHeavy) {
  simmpi::TransientFaultConfig faults;
  faults.drop_prob = 0.2;
  faults.seed = 5;
  const Machine m = Machine::gpc(2);
  const Diagnosis d = diagnose(
      allgather_record(m, 16, {}, collectives::AllgatherAlgo::RecursiveDoubling,
                       faults),
      m);
  const Finding* f = find_kind(d, FindingKind::RetransmissionHeavy);
  ASSERT_NE(f, nullptr) << render_findings(d);
  EXPECT_EQ(evidence(*f, "critical.retransmission_usec"),
            d.critical_path.retransmission);
  EXPECT_EQ(evidence(*f, "critical.total_usec"), d.critical_path.total);
}

TEST(DiagnoseRules, CrossSocketHeavy) {
  // One node, sockets alternating by rank: every ring hop crosses QPI, so
  // all 8 ranks x 7 stages x 4096 bytes are QPI bytes.
  const Machine m = Machine::gpc(1);
  const Diagnosis d = diagnose(
      allgather_record(m, 8,
                       {simmpi::NodeOrder::Block, simmpi::SocketOrder::Scatter},
                       collectives::AllgatherAlgo::Ring),
      m);
  const Finding* f = find_kind(d, FindingKind::CrossSocketHeavy);
  ASSERT_NE(f, nullptr) << render_findings(d);
  EXPECT_EQ(f->severity, Severity::Info);
  EXPECT_EQ(evidence(*f, "flow.qpi_bytes"), 8.0 * 7.0 * 4096.0);
  EXPECT_EQ(evidence(*f, "flow.total_bytes"), 8.0 * 7.0 * 4096.0);
}

TEST(DiagnoseRules, HotScope) {
  // Depth-1 scopes at 70% and 59% of root work: only the first crosses the
  // 60% bar.
  prof::Profile profile;
  profile.entries.resize(3);
  profile.entries[0].name = "(root)";
  profile.entries[0].work_total = 100.0;
  profile.entries[1].name = "mapping";
  profile.entries[1].depth = 1;
  profile.entries[1].work_total = 70.0;
  profile.entries[2].name = "pricing";
  profile.entries[2].depth = 1;
  profile.entries[2].work_total = 59.0;
  const Diagnosis d = diagnose(trace::ScheduleRecord{}, Machine::gpc(1), 8,
                               nullptr, &profile);
  ASSERT_EQ(d.findings.size(), 1u) << render_findings(d);
  const Finding& f = d.findings[0];
  EXPECT_EQ(f.kind, FindingKind::HotScope);
  EXPECT_EQ(evidence(f, "prof.mapping.work_total"), 70.0);
  EXPECT_EQ(evidence(f, "prof.root.work_total"), 100.0);
}

TEST(DiagnoseRules, TailLatency) {
  // p99 at exactly 3x the median raises the finding; at 2.875x it does not.
  // Every value sits on a histogram bucket floor, so the quantiles are
  // exact.
  trace::MetricsRegistry metrics;
  metrics.observe_n("heavy", 1.0, 90);
  metrics.observe_n("heavy", 3.0, 10);
  metrics.observe_n("light", 1.0, 90);
  metrics.observe_n("light", 2.875, 10);
  const Diagnosis d =
      diagnose(trace::ScheduleRecord{}, Machine::gpc(1), 8, &metrics);
  ASSERT_EQ(d.findings.size(), 1u) << render_findings(d);
  const Finding& f = d.findings[0];
  EXPECT_EQ(f.kind, FindingKind::TailLatency);
  EXPECT_EQ(evidence(f, "heavy.p50"), 1.0);
  EXPECT_EQ(evidence(f, "heavy.p99"), 3.0);
  EXPECT_EQ(evidence(f, "heavy.count"), 100.0);
}

TEST(Diagnose, SeverityParsingAndGating) {
  EXPECT_EQ(parse_severity("info"), Severity::Info);
  EXPECT_EQ(parse_severity("warning"), Severity::Warning);
  EXPECT_EQ(parse_severity("critical"), Severity::Critical);
  EXPECT_THROW(parse_severity("fatal"), Error);
  Diagnosis d;
  EXPECT_EQ(d.max_severity(), Severity::Info);
  EXPECT_FALSE(d.has_severity_at_least(Severity::Warning));
  d.findings.push_back({FindingKind::Imbalance, Severity::Warning, "", "", "",
                        {}});
  EXPECT_TRUE(d.has_severity_at_least(Severity::Warning));
  EXPECT_FALSE(d.has_severity_at_least(Severity::Critical));
}

// ---------------------------------------------------------------------------
// Trajectory change points

report::BenchSnapshot snap(const std::string& bench, double value,
                           bool gate = true) {
  report::BenchSnapshot s;
  s.bench = bench;
  s.metrics.push_back({"completion", value, "us",
                       /*higher_is_better=*/false, gate});
  return s;
}

TEST(ChangePoint, FlagsStepWithCommitWindow) {
  std::vector<SnapshotSet> sets;
  const double level[] = {100.0, 100.0, 110.0, 110.0};
  const char* labels[] = {"v1", "v2", "v3", "v4"};
  for (int i = 0; i < 4; ++i)
    sets.push_back({labels[i], {snap("fig3", level[i])}});
  const auto points = detect_change_points(sets);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].bench, "fig3");
  EXPECT_EQ(points[0].metric, "completion");
  EXPECT_EQ(points[0].index, 2);
  EXPECT_EQ(points[0].before_label, "v2");
  EXPECT_EQ(points[0].after_label, "v3");
  EXPECT_EQ(points[0].before, 100.0);
  EXPECT_EQ(points[0].after, 110.0);
  EXPECT_TRUE(points[0].regression);  // lower-is-better metric went up
  const std::string rendered = render_change_points(points);
  EXPECT_NE(rendered.find("'v2' and 'v3'"), std::string::npos);
  EXPECT_NE(rendered.find("REGRESSION"), std::string::npos);
  EXPECT_EQ(rendered.find("no change points"), std::string::npos);
}

TEST(ChangePoint, ImprovementDirectionAndGatedOnly) {
  std::vector<SnapshotSet> sets;
  // A drop in a lower-is-better metric is an improvement, not a regression;
  // an ungated metric's step is ignored under gated_only.
  for (int i = 0; i < 3; ++i) {
    report::BenchSnapshot s = snap("fig5", i < 1 ? 100.0 : 50.0);
    s.metrics.push_back({"wall", i < 1 ? 1.0 : 9.0, "seconds", false,
                         /*gate=*/false});
    sets.push_back({"s" + std::to_string(i), {s}});
  }
  const auto points = detect_change_points(sets);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].metric, "completion");
  EXPECT_FALSE(points[0].regression);
  ChangePointOptions all;
  all.gated_only = false;
  EXPECT_EQ(detect_change_points(sets, all).size(), 2u);
}

TEST(ChangePoint, JitterWithinToleranceIsQuiet) {
  std::vector<SnapshotSet> sets;
  const double level[] = {100.0, 101.0, 99.5, 100.2, 100.0};
  for (int i = 0; i < 5; ++i)
    sets.push_back({"s" + std::to_string(i), {snap("fig3", level[i])}});
  const auto points = detect_change_points(sets);
  EXPECT_TRUE(points.empty());
  EXPECT_NE(render_change_points(points).find("no change points"),
            std::string::npos);
  // The CI negative control: the same set twice can never step.
  std::vector<SnapshotSet> twice = {{"a", {snap("fig3", 123.0)}},
                                    {"b", {snap("fig3", 123.0)}}};
  EXPECT_TRUE(detect_change_points(twice).empty());
}

}  // namespace
}  // namespace tarr::insight
