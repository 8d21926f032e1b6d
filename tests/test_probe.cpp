#include "probe/probe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "fault/degraded.hpp"
#include "mapping/mapper.hpp"
#include "topology/distance.hpp"
#include "topology/fattree.hpp"
#include "topology/machine.hpp"
#include "trace/tracer.hpp"

namespace tarr::probe {
namespace {

using fault::DegradedTopology;
using fault::FaultMask;
using topology::DistanceMatrix;
using topology::Machine;
using topology::NodeShape;
using topology::build_gpc_network;

/// Small GPC-style machine shared by most tests: 8 nodes, 2 leaves.
Machine small_machine() {
  topology::GpcTreeConfig tree;
  tree.num_leaves = 2;
  tree.nodes_per_leaf = 4;
  tree.num_cores = 2;
  tree.uplinks_per_core = 2;
  tree.lines_per_core = 2;
  tree.spines_per_core = 2;
  tree.leaves_per_line = 1;
  return Machine(NodeShape{.sockets = 1, .cores_per_socket = 2},
                 build_gpc_network(8, tree));
}

/// Field-by-field equality of two reports' per-pair outcomes.
bool same_pair_stats(const ProbeReport& x, const ProbeReport& y) {
  if (x.pair_stats.size() != y.pair_stats.size()) return false;
  for (std::size_t i = 0; i < x.pair_stats.size(); ++i) {
    const PairProbe& p = x.pair_stats[i];
    const PairProbe& q = y.pair_stats[i];
    if (p.a != q.a || p.b != q.b || p.samples != q.samples ||
        p.timeouts != q.timeouts || p.retries != q.retries ||
        p.resolved != q.resolved || p.estimate != q.estimate ||
        p.truth != q.truth)
      return false;
  }
  return true;
}

DistanceMatrix quiet_truth(const Machine& m) {
  return effective_node_distances(DegradedTopology(m, FaultMask{}));
}

/// Metrics CSV without the wall.* counters: real wall-clock spans are
/// nondeterministic by design (they never gate anywhere in the repo);
/// everything else must be byte-identical across same-seed runs.
std::string sans_wall(const std::string& csv) {
  std::string out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t eol = csv.find('\n', pos);
    const std::string line =
        csv.substr(pos, eol == std::string::npos ? eol : eol - pos + 1);
    if (line.find(",wall.") == std::string::npos) out += line;
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// ProbeConfig validation.

TEST(ProbeConfig, ValidationRejectsOutOfRangeFields) {
  ProbeConfig ok;
  EXPECT_NO_THROW(validate(ok));
  ProbeConfig bad = ok;
  bad.samples_per_pair = 0;
  EXPECT_THROW(validate(bad), Error);
  bad = ok;
  bad.noise = 1.0;
  EXPECT_THROW(validate(bad), Error);
  bad = ok;
  bad.noise = -0.1;
  EXPECT_THROW(validate(bad), Error);
  bad = ok;
  bad.outlier_prob = 1.5;
  EXPECT_THROW(validate(bad), Error);
  bad = ok;
  bad.timeout_prob = -0.1;
  EXPECT_THROW(validate(bad), Error);
  bad = ok;
  bad.max_attempts = 0;
  EXPECT_THROW(validate(bad), Error);
}

// ---------------------------------------------------------------------------
// Noiseless probing is exact.

TEST(Probe, ZeroNoiseRecoversTruthExactly) {
  const Machine m = small_machine();
  const DistanceMatrix truth = quiet_truth(m);
  ProbeConfig cfg;
  cfg.noise = 0.0;
  cfg.outlier_prob = 0.0;
  const ProbedDistances out = probe_distances(m, truth, cfg);
  EXPECT_EQ(out.report.resolved_pairs, out.report.pairs);
  EXPECT_EQ(out.report.pairs, 8 * 7 / 2);
  EXPECT_DOUBLE_EQ(out.report.rms_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(out.report.max_rel_error, 0.0);
  const DistanceMatrix node = out.distances.node_level();
  for (NodeId a = 0; a < 8; ++a)
    for (NodeId b = 0; b < 8; ++b)
      EXPECT_FLOAT_EQ(node.at(a, b), truth.at(a, b)) << a << "," << b;
}

TEST(Probe, IntraNodeBlockIsNeverNoisy) {
  // hwloc runs locally: intra-node distances stay exact at any noise level.
  const Machine m = small_machine();
  const DistanceMatrix truth = quiet_truth(m);
  ProbeConfig cfg;
  cfg.noise = 0.4;
  cfg.seed = 99;
  const ProbedDistances out = probe_distances(m, truth, cfg);
  const DistanceMatrix exact = topology::extract_distances(m);
  for (int c = 0; c < m.total_cores(); ++c) {
    EXPECT_FLOAT_EQ(out.distances.at(c, c), exact.at(c, c));
    // Same-node, different-core entries are the exact local distances.
    const int peer = (c % 2 == 0) ? c + 1 : c - 1;
    EXPECT_FLOAT_EQ(out.distances.at(c, peer), exact.at(c, peer));
  }
}

TEST(Probe, NoiseIsBoundedByConfiguredHalfWidth) {
  const Machine m = small_machine();
  const DistanceMatrix truth = quiet_truth(m);
  ProbeConfig cfg;
  cfg.noise = 0.2;
  cfg.outlier_prob = 0.0;  // spikes intentionally exceed the noise band
  const ProbedDistances out = probe_distances(m, truth, cfg);
  for (const PairProbe& p : out.report.pair_stats) {
    ASSERT_TRUE(p.resolved);
    const double rel = std::abs(p.estimate / p.truth - 1.0);
    EXPECT_LE(rel, cfg.noise + 1e-6);
  }
  EXPECT_LE(out.report.max_rel_error, cfg.noise + 1e-6);
}

// ---------------------------------------------------------------------------
// Median-of-k outlier rejection.

TEST(Probe, MedianRejectsOutlierSpikes) {
  // With k = 5 samples and a modest spike probability, the median estimate
  // must stay within the noise band for the vast majority of pairs even
  // though individual samples are 4x spikes.
  const Machine m = small_machine();
  const DistanceMatrix truth = quiet_truth(m);
  ProbeConfig cfg;
  cfg.noise = 0.05;
  cfg.outlier_prob = 0.2;
  cfg.samples_per_pair = 5;
  const ProbedDistances out = probe_distances(m, truth, cfg);
  int poisoned = 0;
  for (const PairProbe& p : out.report.pair_stats)
    if (std::abs(p.estimate / p.truth - 1.0) > 1.0) ++poisoned;
  // A mean estimator would be poisoned on ~63% of pairs
  // (P[>=1 spike in 5] with p=.2); the median keeps nearly all clean.
  EXPECT_LE(poisoned, out.report.pairs / 10);
}

// ---------------------------------------------------------------------------
// Timeouts, retries, and unresolved pairs.

TEST(Probe, TimeoutsAreRetriedWithBackoffCost) {
  const Machine m = small_machine();
  const DistanceMatrix truth = quiet_truth(m);
  ProbeConfig cfg;
  cfg.timeout_prob = 0.3;
  cfg.seed = 5;
  const ProbedDistances out = probe_distances(m, truth, cfg);
  EXPECT_GT(out.report.timeouts, 0);
  EXPECT_GT(out.report.retries, 0);
  EXPECT_GT(out.report.measurements,
            static_cast<long long>(out.report.pairs) * cfg.samples_per_pair);
  // Backoff waits make a lossy probe strictly more expensive than a clean
  // one with the same sample budget.
  ProbeConfig clean = cfg;
  clean.timeout_prob = 0.0;
  const ProbedDistances quiet = probe_distances(m, truth, clean);
  EXPECT_GT(out.report.probe_cost_usec, quiet.report.probe_cost_usec);
}

TEST(Probe, TotalLossFillsWorstCaseAndFails) {
  const Machine m = small_machine();
  const DistanceMatrix truth = quiet_truth(m);
  ProbeConfig cfg;
  cfg.timeout_prob = 1.0;
  const ProbedDistances out = probe_distances(m, truth, cfg);
  EXPECT_EQ(out.report.resolved_pairs, 0);
  EXPECT_EQ(out.report.unresolved_pairs(), out.report.pairs);
  EXPECT_TRUE(out.report.failed());
  // Every inter-node entry degraded to the same conservative worst case,
  // and the matrix stayed finite.
  const float wc = out.report.worst_case_distance;
  EXPECT_TRUE(std::isfinite(wc));
  const DistanceMatrix node = out.distances.node_level();
  for (NodeId a = 0; a < 8; ++a)
    for (NodeId b = a + 1; b < 8; ++b)
      EXPECT_FLOAT_EQ(node.at(a, b), wc);
}

TEST(Probe, WorstCaseFillExceedsEveryResolvedEstimate) {
  const Machine m = small_machine();
  const DistanceMatrix truth = quiet_truth(m);
  ProbeConfig cfg;
  cfg.timeout_prob = 0.6;  // some pairs lose all samples, most resolve
  cfg.max_attempts = 1;
  cfg.samples_per_pair = 2;
  cfg.seed = 17;
  const ProbedDistances out = probe_distances(m, truth, cfg);
  ASSERT_GT(out.report.unresolved_pairs(), 0);
  ASSERT_GT(out.report.resolved_pairs, 0);
  float max_resolved = 0.0f;
  for (const PairProbe& p : out.report.pair_stats)
    if (p.resolved) max_resolved = std::max(max_resolved, p.estimate);
  EXPECT_GE(out.report.worst_case_distance, max_resolved);
  const DistanceMatrix node = out.distances.node_level();
  for (const PairProbe& p : out.report.pair_stats)
    if (!p.resolved) {
      EXPECT_FLOAT_EQ(node.at(p.a, p.b), out.report.worst_case_distance);
    }
}

// ---------------------------------------------------------------------------
// Determinism: same seed, same bytes.

TEST(Probe, SameSeedIsByteIdenticalIncludingTrace) {
  const Machine m = small_machine();
  const DistanceMatrix truth = quiet_truth(m);
  ProbeConfig cfg;
  cfg.noise = 0.15;
  cfg.outlier_prob = 0.1;
  cfg.timeout_prob = 0.1;
  cfg.seed = 42;

  trace::Tracer t1, t2;
  const ProbedDistances a = probe_distances(m, truth, cfg, &t1);
  const ProbedDistances b = probe_distances(m, truth, cfg, &t2);
  EXPECT_TRUE(same_pair_stats(a.report, b.report));
  EXPECT_EQ(a.report.measurements, b.report.measurements);
  EXPECT_EQ(a.report.probe_cost_usec, b.report.probe_cost_usec);
  EXPECT_EQ(a.report.rms_rel_error, b.report.rms_rel_error);
  EXPECT_EQ(a.report.max_rel_error, b.report.max_rel_error);
  EXPECT_EQ(a.report.worst_case_distance, b.report.worst_case_distance);
  EXPECT_EQ(sans_wall(t1.metrics().csv()), sans_wall(t2.metrics().csv()));
  const DistanceMatrix a_node = a.distances.node_level();
  const DistanceMatrix b_node = b.distances.node_level();
  for (NodeId x = 0; x < 8; ++x)
    for (NodeId y = 0; y < 8; ++y)
      EXPECT_FLOAT_EQ(a_node.at(x, y), b_node.at(x, y));
  for (int x = 0; x < m.total_cores(); ++x)
    for (int y = 0; y < m.total_cores(); ++y)
      EXPECT_FLOAT_EQ(a.distances.at(x, y), b.distances.at(x, y));

  ProbeConfig other = cfg;
  other.seed = 43;
  const ProbedDistances c = probe_distances(m, truth, other);
  EXPECT_FALSE(same_pair_stats(a.report, c.report));
}

// ---------------------------------------------------------------------------
// Congestion model.

TEST(Congestion, MaskIsPureFunctionOfConfigAndEpoch) {
  const Machine m = small_machine();
  CongestionConfig cfg;
  cfg.link_prob = 0.5;
  for (int e : {0, 3, 1}) {  // any order: no hidden state
    const FaultMask a = congestion_mask(m.network(), cfg, e);
    const FaultMask b = congestion_mask(m.network(), cfg, e);
    EXPECT_EQ(a.describe(), b.describe()) << "epoch " << e;
  }
}

TEST(Congestion, ZeroChurnFreezesThePattern) {
  const Machine m = small_machine();
  CongestionConfig cfg;
  cfg.churn = 0.0;
  cfg.link_prob = 0.5;
  const FaultMask e0 = congestion_mask(m.network(), cfg, 0);
  for (int e = 1; e < 5; ++e)
    EXPECT_EQ(congestion_mask(m.network(), cfg, e).describe(), e0.describe());
}

TEST(Congestion, FullChurnResamplesEveryEpoch) {
  const Machine m = small_machine();
  CongestionConfig cfg;
  cfg.churn = 1.0;
  cfg.link_prob = 0.5;
  int changed = 0;
  for (int e = 1; e < 6; ++e)
    if (congestion_mask(m.network(), cfg, e).describe() !=
        congestion_mask(m.network(), cfg, e - 1).describe())
      ++changed;
  EXPECT_GE(changed, 3);
}

TEST(Congestion, SparesHostLinksByDefault) {
  const Machine m = small_machine();
  CongestionConfig cfg;
  cfg.link_prob = 1.0;  // congest everything eligible
  const FaultMask mask = congestion_mask(m.network(), cfg, 0);
  const topology::SwitchGraph d = mask.apply(m.network());
  for (LinkId l = 0; l < m.network().num_links(); ++l) {
    const auto& ln = m.network().link(l);
    const bool host =
        m.network().vertex(ln.a).kind == topology::VertexKind::Host ||
        m.network().vertex(ln.b).kind == topology::VertexKind::Host;
    if (host) {
      EXPECT_EQ(d.link(l).capacity, ln.capacity);
    }
  }
}

TEST(Congestion, EffectiveDistancesReduceToHopDistancesWhenQuiet) {
  const Machine m = small_machine();
  const DistanceMatrix eff =
      effective_node_distances(DegradedTopology(m, FaultMask{}));
  const DistanceMatrix hop = topology::extract_node_distances(m);
  for (NodeId a = 0; a < 8; ++a)
    for (NodeId b = 0; b < 8; ++b)
      EXPECT_FLOAT_EQ(eff.at(a, b), hop.at(a, b));
}

TEST(Congestion, CongestedLinksLengthenEffectiveDistances) {
  const Machine m = small_machine();
  CongestionConfig cfg;
  cfg.link_prob = 1.0;
  cfg.min_factor = 0.25;
  cfg.max_factor = 0.5;
  const DegradedTopology quiet(m, FaultMask{});
  const DegradedTopology busy(m, congestion_mask(m.network(), cfg, 0));
  const DistanceMatrix dq = effective_node_distances(quiet);
  const DistanceMatrix db = effective_node_distances(busy);
  double grew = 0.0;
  for (NodeId a = 0; a < 8; ++a)
    for (NodeId b = 0; b < 8; ++b) {
      EXPECT_GE(db.at(a, b), dq.at(a, b) - 1e-6);
      grew += db.at(a, b) - dq.at(a, b);
    }
  EXPECT_GT(grew, 0.0);
}

// ---------------------------------------------------------------------------
// Adaptive controller state machine.

struct ControllerHarness {
  Machine m = small_machine();
  std::unique_ptr<mapping::Mapper> mapper =
      mapping::make_heuristic(mapping::Pattern::Ring);
  DegradedTopology quiet{m, FaultMask{}};
  std::vector<int> slots;

  ControllerHarness() {
    slots.resize(static_cast<std::size_t>(m.total_cores()));
    std::iota(slots.begin(), slots.end(), 0);
  }

  ControllerConfig config() const {
    ControllerConfig cfg;
    cfg.probe.noise = 0.0;
    cfg.probe.outlier_prob = 0.0;
    cfg.drift_threshold = 0.1;
    cfg.hysteresis = 2;
    cfg.cooldown = 1;
    return cfg;
  }
};

TEST(Controller, FirstObservationCalibratesTheReference) {
  ControllerHarness h;
  AdaptiveController ctl(*h.mapper, h.config(), h.quiet, h.slots);
  EXPECT_FALSE(ctl.fallback_active());
  EXPECT_EQ(ctl.remaps(), 1);  // the initial probe-and-map
  const Decision d = ctl.observe(0, h.quiet, 100.0);
  EXPECT_EQ(d.action, Action::Calibrate);
  EXPECT_DOUBLE_EQ(d.reference, 100.0);
  EXPECT_DOUBLE_EQ(d.drift, 0.0);
}

TEST(Controller, HysteresisRequiresConsecutiveStaleEpochs) {
  ControllerHarness h;
  AdaptiveController ctl(*h.mapper, h.config(), h.quiet, h.slots);
  ctl.observe(0, h.quiet, 100.0);                            // calibrate
  EXPECT_EQ(ctl.observe(1, h.quiet, 102.0).action, Action::Keep);
  // One stale epoch (drift 0.2)...
  const Decision d2 = ctl.observe(2, h.quiet, 120.0);
  EXPECT_EQ(d2.action, Action::Keep);
  EXPECT_EQ(d2.drift_streak, 1);
  // ...followed by a fresh one: the streak must reset, no re-map.
  const Decision d3 = ctl.observe(3, h.quiet, 101.0);
  EXPECT_EQ(d3.action, Action::Keep);
  EXPECT_EQ(d3.drift_streak, 0);
  // Two CONSECUTIVE stale epochs reach hysteresis and trigger the re-map.
  EXPECT_EQ(ctl.observe(4, h.quiet, 125.0).action, Action::Keep);
  const Decision d5 = ctl.observe(5, h.quiet, 130.0);
  EXPECT_EQ(d5.action, Action::Remap);
  EXPECT_EQ(d5.drift_streak, 2);
  EXPECT_EQ(ctl.remaps(), 2);
}

TEST(Controller, CooldownSuppressesDriftEvaluation) {
  ControllerHarness h;
  ControllerConfig cfg = h.config();
  cfg.hysteresis = 1;
  cfg.cooldown = 2;
  AdaptiveController ctl(*h.mapper, cfg, h.quiet, h.slots);
  ctl.observe(0, h.quiet, 100.0);                             // calibrate
  EXPECT_EQ(ctl.observe(1, h.quiet, 150.0).action, Action::Remap);
  // Post-remap: recalibration first, then two cooldown epochs that must not
  // trigger even at huge drift.
  EXPECT_EQ(ctl.observe(2, h.quiet, 100.0).action, Action::Calibrate);
  EXPECT_EQ(ctl.observe(3, h.quiet, 500.0).action, Action::Keep);
  EXPECT_EQ(ctl.observe(4, h.quiet, 500.0).action, Action::Keep);
  // Cooldown over: the next stale epoch triggers again.
  EXPECT_EQ(ctl.observe(5, h.quiet, 500.0).action, Action::Remap);
}

TEST(Controller, ProbeFailureFallsBackToIdentityAndRecovers) {
  ControllerHarness h;
  ControllerConfig cfg = h.config();
  cfg.hysteresis = 1;
  cfg.cooldown = 0;
  cfg.probe.timeout_prob = 1.0;  // probing impossible from the start
  AdaptiveController ctl(*h.mapper, cfg, h.quiet, h.slots);
  EXPECT_TRUE(ctl.fallback_active());
  EXPECT_EQ(ctl.mapping(), h.slots);  // identity = the initial layout
  EXPECT_EQ(ctl.fallbacks(), 1);
  for (std::size_t r = 0; r < h.slots.size(); ++r)
    EXPECT_EQ(ctl.oldrank()[r], static_cast<Rank>(r));

  ctl.observe(0, h.quiet, 100.0);  // calibrate on the fallback
  const Decision d = ctl.observe(1, h.quiet, 200.0);
  EXPECT_EQ(d.action, Action::Fallback);
  EXPECT_TRUE(d.probe_failed);
  EXPECT_TRUE(ctl.fallback_active());
}

TEST(Controller, DecisionsAreEmittedThroughTrace) {
  ControllerHarness h;
  ControllerConfig cfg = h.config();
  cfg.hysteresis = 1;
  trace::Tracer tracer;
  AdaptiveController ctl(*h.mapper, cfg, h.quiet, h.slots, &tracer);
  ctl.observe(0, h.quiet, 100.0);
  ctl.observe(1, h.quiet, 101.0);
  ctl.observe(2, h.quiet, 200.0);
  EXPECT_DOUBLE_EQ(tracer.metrics().count("probe.decision.calibrate"), 1.0);
  EXPECT_DOUBLE_EQ(tracer.metrics().count("probe.decision.keep"), 1.0);
  EXPECT_DOUBLE_EQ(tracer.metrics().count("probe.decision.remap"), 1.0);
}

TEST(Controller, ValidationRejectsBadKnobs) {
  ControllerConfig cfg;
  EXPECT_NO_THROW(validate(cfg));
  cfg.hysteresis = 0;
  EXPECT_THROW(validate(cfg), Error);
  cfg = ControllerConfig{};
  cfg.cooldown = -1;
  EXPECT_THROW(validate(cfg), Error);
  cfg = ControllerConfig{};
  cfg.drift_threshold = 0.0;
  EXPECT_THROW(validate(cfg), Error);
}

// ---------------------------------------------------------------------------
// Full scenario: determinism and structural guarantees.

ScenarioConfig tiny_scenario() {
  ScenarioConfig cfg;
  cfg.num_nodes = 8;
  cfg.tree.num_leaves = 2;
  cfg.tree.nodes_per_leaf = 4;
  cfg.tree.num_cores = 2;
  cfg.tree.uplinks_per_core = 2;
  cfg.tree.lines_per_core = 2;
  cfg.tree.spines_per_core = 2;
  cfg.tree.leaves_per_line = 1;
  cfg.shape = NodeShape{.sockets = 1, .cores_per_socket = 2};
  cfg.epochs = 4;
  cfg.congestion.link_prob = 0.4;
  cfg.controller.probe.samples_per_pair = 3;
  return cfg;
}

TEST(Scenario, SameConfigIsByteIdenticalAcrossRuns) {
  const ScenarioConfig cfg = tiny_scenario();
  trace::Tracer t1, t2;
  const ScenarioResult a = run_probed_scenario(cfg, &t1);
  const ScenarioResult b = run_probed_scenario(cfg, &t2);
  EXPECT_EQ(a.csv(), b.csv());
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(sans_wall(t1.metrics().csv()), sans_wall(t2.metrics().csv()));
}

TEST(Scenario, ProducesOneRowPerPatternEpoch) {
  const ScenarioConfig cfg = tiny_scenario();
  const ScenarioResult res = run_probed_scenario(cfg);
  // Both patterns, ring allreduce and alltoall, always run.
  ASSERT_EQ(res.rows.size(), 2 * static_cast<std::size_t>(cfg.epochs));
  ASSERT_EQ(res.patterns.size(), 2u);
  for (const EpochRow& r : res.rows) {
    EXPECT_GT(r.identity_usec, 0.0);
    EXPECT_GT(r.oracle_usec, 0.0);
    EXPECT_GT(r.probed_usec, 0.0);
  }
  // Epoch 0 always calibrates.
  EXPECT_EQ(res.rows[0].action, Action::Calibrate);
}

TEST(Scenario, ForcedProbeFailureDegradesToIdentityEverywhere) {
  ScenarioConfig cfg = tiny_scenario();
  cfg.controller.probe.timeout_prob = 1.0;
  const ScenarioResult res = run_probed_scenario(cfg);
  for (const EpochRow& r : res.rows) {
    EXPECT_TRUE(r.fallback);
    EXPECT_DOUBLE_EQ(r.probed_usec, r.identity_usec);
  }
  for (const PatternSummary& p : res.patterns) {
    EXPECT_GE(p.fallbacks, 1);
    EXPECT_EQ(p.remaps, 0);
    EXPECT_DOUBLE_EQ(p.probed_mean, p.identity_mean);
    EXPECT_DOUBLE_EQ(p.probed_gain_pct(), 0.0);
  }
}

TEST(Scenario, ValidationRejectsBadConfigs) {
  ScenarioConfig cfg = tiny_scenario();
  cfg.epochs = 0;
  EXPECT_THROW(validate(cfg), Error);
  cfg = tiny_scenario();
  cfg.num_nodes = 0;
  EXPECT_THROW(validate(cfg), Error);
}

}  // namespace
}  // namespace tarr::probe
