#pragma once

#include <string>
#include <vector>

#include "probe/congestion.hpp"
#include "probe/controller.hpp"
#include "topology/fattree.hpp"

/// \file scenario.hpp
/// The fig8 experiment: probed re-mapping vs oracle vs identity on a
/// churning, congested fabric.
///
/// One scenario runs an epoch loop over a GPC-style machine.  Each epoch,
/// the multi-tenant congestion model (probe/congestion.hpp) decides the
/// fabric state; three policies then price the same ML-style collective (the
/// allreduce-ring and alltoall-rotation schedules, 16 KiB blocks) on that
/// fabric:
///
///  * identity — the resource manager's cyclic layout, never reordered
///    (the floor);
///  * oracle   — RMH re-run every epoch on the exact effective distance
///    matrix, as if the job could read the fabric's counters for free
///    (the ceiling);
///  * probed   — the adaptive controller: noisy probes, drift detection,
///    hysteresis, identity fallback (the realistic middle).
///
/// As probe noise shrinks, probed should close the gap to the oracle;
/// with probing disabled (timeout_prob = 1) the controller must degrade to
/// identity gracefully rather than fail.  Both claims are asserted by the
/// fig8_probed bench and the probe CLI smoke in CI.
///
/// The probe's own simulated cost (ProbeReport::probe_cost_usec) is
/// reported separately rather than folded into the per-epoch latency: the
/// paper treats topology discovery as an offline, amortized step, and the
/// split keeps the steady-state comparison clean while still exposing what
/// probing costs.

namespace tarr::probe {

/// Scenario parameters.  The default machine matches the fault campaign's
/// right-sized GPC fabric so congested links land on links the job uses.
struct ScenarioConfig {
  int num_nodes = 32;
  /// Right-sized GPC fabric, as in the fault campaign: congested links land
  /// on links the job actually routes over.
  topology::GpcTreeConfig tree{.num_leaves = 4,
                               .nodes_per_leaf = 8,
                               .num_cores = 2,
                               .uplinks_per_core = 2,
                               .lines_per_core = 2,
                               .spines_per_core = 2,
                               .leaves_per_line = 2};
  int max_ranks = 0;  ///< cap on processes; 0 = one per core
  /// Node shape (the paper's flat 2x4 nodes by default; deep or one-core
  /// shapes are accepted for what-if studies).
  topology::NodeShape shape{};
  int epochs = 8;
  CongestionConfig congestion;
  ControllerConfig controller;
};

/// Throws tarr::Error naming the first out-of-range field.
void validate(const ScenarioConfig& cfg);

/// One (pattern, epoch) measurement.
struct EpochRow {
  std::string pattern;
  int epoch = 0;
  double identity_usec = 0.0;
  double oracle_usec = 0.0;
  double probed_usec = 0.0;
  Action action = Action::Keep;  ///< controller decision for this epoch
  double drift = 0.0;
  bool fallback = false;  ///< controller on identity fallback this epoch
};

/// Per-pattern aggregate.
struct PatternSummary {
  std::string pattern;
  double identity_mean = 0.0;
  double oracle_mean = 0.0;
  double probed_mean = 0.0;
  int remaps = 0;     ///< successful re-probes (initial probe included)
  int fallbacks = 0;  ///< probe failures absorbed as identity
  double probe_cost_usec = 0.0;  ///< total simulated probing cost
  double probe_rms_error = 0.0;  ///< residual error of the last probe

  /// 100 * (identity - probed) / identity: what adaptive probing buys over
  /// never reordering.  Positive = probed wins.
  double probed_gain_pct() const;
  /// 100 * (probed - oracle) / oracle: how far probing is from perfect
  /// knowledge.  Smaller = closer to the oracle.
  double oracle_gap_pct() const;
};

/// Full scenario output.
struct ScenarioResult {
  ScenarioConfig config;
  std::vector<EpochRow> rows;
  std::vector<PatternSummary> patterns;

  /// Per-epoch CSV (pattern, epoch, the three policies, decision).
  std::string csv() const;
  /// Human-readable per-pattern table.
  std::string summary() const;
};

/// Run the scenario.  Deterministic in the config seeds.  A trace sink
/// installed on the ambient channel (prof/obs.hpp) around the call receives
/// everything the scenario emits: every priced run's engine events, the
/// controller's decisions and probes, the mapping decision counters of
/// every oracle and re-probed mapping, a scenario.rows counter and the
/// "probed-scenario" wall span.
ScenarioResult run_probed_scenario(const ScenarioConfig& cfg);

}  // namespace tarr::probe
