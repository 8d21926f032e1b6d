#pragma once

#include <vector>

#include "common/rng.hpp"
#include "topology/distance.hpp"
#include "topology/machine.hpp"
#include "trace/sink.hpp"

/// \file measure.hpp
/// Noisy topology probing — the "Cloud Collectives" substitute for exact
/// distance extraction.
///
/// The paper extracts physical distances from hwloc and InfiniBand tools and
/// assumes they are exact.  On cloud or multi-tenant fabrics neither tool
/// sees the real network: the only way to learn the inter-node distance
/// matrix is to *measure* it with pairwise latency probes, and every
/// measurement is polluted by noise, congestion spikes, and the occasional
/// total loss.  This module simulates that measurement process
/// deterministically:
///
///  * every node pair is sampled `samples_per_pair` times; a sample observes
///    the true effective distance times a seeded multiplicative noise term,
///    occasionally multiplied further by an outlier spike (another tenant's
///    burst hitting the probe, kOutlierScale times the sample);
///  * a sample can time out (seeded, probability `timeout_prob`); timed-out
///    samples are retried with exponential backoff (kBackoffBaseUsec *
///    kBackoffFactor^i) up to `max_attempts` attempts, every wait accounted
///    into the probe's simulated cost;
///  * the per-pair estimate is the *median* of the accepted samples
///    (median-of-k outlier rejection), so a single spike cannot poison a
///    pair;
///  * a pair whose every sample timed out is *unresolved*: instead of
///    failing, it degrades gracefully to a conservative worst-case distance
///    (the largest resolved estimate times kWorstCaseMargin), so the
///    mapping heuristics still consume a fully-finite matrix and simply
///    keep unresolved pairs at arm's length.
///
/// Intra-node distances are NOT probed: hwloc runs locally and stays exact
/// even on a cloud VM, exactly as in the source paper.  Only the network
/// level is uncertain.
///
/// Everything is deterministic in `ProbeConfig::seed`: same seed, same
/// report, same matrix, byte for byte (the contract tests/test_probe.cpp
/// pins and CI relies on).

namespace tarr::probe {

/// Probing parameters.  Defaults model a mildly noisy tenant network.
struct ProbeConfig {
  std::uint64_t seed = 1;
  /// Samples kept per node pair (the k of median-of-k).  >= 1.
  int samples_per_pair = 5;
  /// Relative half-width of the multiplicative measurement noise: a sample
  /// observes truth * (1 + noise * u), u uniform in [-1, 1).  In [0, 1).
  double noise = 0.1;
  /// Probability a sample is additionally hit by a congestion spike.
  double outlier_prob = 0.05;
  /// Probability one probe attempt times out (seeded, per attempt).
  double timeout_prob = 0.0;
  /// Attempts per sample before the sample is abandoned.  >= 1.
  int max_attempts = 4;
};

/// Throws tarr::Error naming the first out-of-range field.
void validate(const ProbeConfig& cfg);

/// Per-pair measurement record (node pair a < b).
struct PairProbe {
  NodeId a = 0;
  NodeId b = 0;
  int samples = 0;       ///< accepted samples (median input)
  int timeouts = 0;      ///< attempts that timed out
  int retries = 0;       ///< backoff retries spent (timeouts that re-tried)
  bool resolved = false;
  float estimate = 0.0f; ///< median estimate; worst-case fill if unresolved
  float truth = 0.0f;    ///< ground-truth effective distance (simulation only)
};

/// Structured probing outcome: sample accounting, residual error against the
/// ground truth the simulator knows, and the unresolved remainder.
struct ProbeReport {
  int nodes = 0;
  int pairs = 0;           ///< probed node pairs: nodes*(nodes-1)/2
  int resolved_pairs = 0;
  long long measurements = 0;  ///< attempts issued (timeouts included)
  long long timeouts = 0;
  long long retries = 0;
  Usec probe_cost_usec = 0.0;  ///< simulated probing time incl. backoff waits
  /// Residual error of resolved pairs vs. ground truth (relative).
  double rms_rel_error = 0.0;
  double max_rel_error = 0.0;
  /// Conservative distance assigned to every unresolved pair.
  float worst_case_distance = 0.0f;
  std::vector<PairProbe> pair_stats;  ///< ascending (a, b)

  int unresolved_pairs() const { return pairs - resolved_pairs; }

  /// True when fewer than half of the pairs resolved (kMinResolvedFraction)
  /// — the caller should not trust the inferred matrix.
  bool failed() const;
};

/// Probing output: the inferred matrix plus the report.  `distances` is the
/// drop-in Mapper input: probed node-to-node estimates over the exact
/// intra-node template.  Its node_level() is the leader-level matrix for
/// hierarchical use.
struct ProbedDistances {
  topology::DistanceMatrix distances;
  ProbeReport report;
};

/// Simulate probing `m`'s network against the ground-truth node-level
/// matrix `truth` (extract_node_distances for a quiet fabric,
/// probe::effective_node_distances for a congested one).  A pair whose true
/// distance is +infinity (partitioned) times out on every attempt
/// regardless of `timeout_prob` — nothing answers across a cut.  When
/// `sink` is non-null the probe emits its counters
/// (probe.measurements/timeouts/retries/unresolved_pairs) and a
/// "probe" wall span through it.
ProbedDistances probe_distances(const topology::Machine& m,
                                const topology::DistanceMatrix& truth,
                                const ProbeConfig& cfg,
                                trace::TraceSink* sink = nullptr);

}  // namespace tarr::probe
