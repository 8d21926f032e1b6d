#pragma once

#include <string>
#include <vector>

#include "simmpi/transient.hpp"
#include "topology/fattree.hpp"

/// \file campaign.hpp
/// Monte Carlo fault campaigns: how much of the mapping heuristics' benefit
/// survives component failure?
///
/// For every failure count k and trial, a seeded FaultMask knocks k
/// components out of a GPC-style machine; the campaign then prices the
/// pattern-matched collective for each of the paper's four heuristics (a
/// schedule of collectives/schedules.hpp, 16 KiB blocks, the default cost
/// model) under three policies on the *degraded* fabric:
///   * baseline — the initial (block-bunch) layout, no reordering;
///   * stale    — the heuristic's mapping computed from the PRISTINE
///                distance matrix (the mapping nobody recomputed after the
///                failure);
///   * remap    — the heuristic re-run on the degraded distance matrix.
/// Node-failure campaigns go through shrink_communicator first, so the
/// collective runs over the survivors (shrink-and-continue); trials whose
/// failures partition the fabric are recorded structurally, not crashed on.
/// Everything is deterministic in the config seed.

namespace tarr::fault {

/// Which component class a campaign knocks out.
enum class FailureKind { Links, Nodes };

const char* to_string(FailureKind k);

/// Campaign parameters.  The default tree is a right-sized GPC-style fabric
/// (4 leaves x 8 nodes, 2 core complexes of 2 lines x 2 spines) that the
/// default 32 nodes fill completely, so a random link failure lands on a
/// link the job actually uses and visibly reroutes traffic — unlike the
/// paper's full 960-node tree, where a small job touches a sliver of the
/// fabric.
struct CampaignConfig {
  int num_nodes = 32;
  topology::GpcTreeConfig tree{.num_leaves = 4,
                               .nodes_per_leaf = 8,
                               .num_cores = 2,
                               .uplinks_per_core = 2,
                               .lines_per_core = 2,
                               .spines_per_core = 2,
                               .leaves_per_line = 2};
  int max_ranks = 0;  ///< cap on processes; 0 = one per core (rounded to pow2)
  std::vector<int> failure_counts = {0, 1, 2, 4, 8};
  int trials = 8;  ///< Monte Carlo trials per failure count
  std::uint64_t seed = 1;
  FailureKind kind = FailureKind::Links;
  /// Optional per-transfer transient faults priced into every run (the seed
  /// is re-derived per run so trials stay independent and deterministic).
  simmpi::TransientFaultConfig transient;
};

/// One (failure count, trial, pattern) measurement.
struct CampaignRow {
  int failures = 0;
  int trial = 0;
  std::string pattern;  ///< "rd-allgather", "ring-allgather", ...
  std::string mapper;   ///< heuristic name, e.g. "RDMH"
  int survivors = 0;    ///< ranks that survived the shrink
  int ranks = 0;        ///< processes the collective actually ran with
  bool partitioned = false;  ///< failures split the fabric; times are absent
  double baseline_usec = 0.0;
  double stale_usec = 0.0;
  double remap_usec = 0.0;
  /// Transient-fault counters summed over the row's three priced runs
  /// (all zero when the transient model is disabled).
  simmpi::TransientFaultStats transient;
};

/// Full campaign output.
struct CampaignResult {
  CampaignConfig config;
  std::vector<CampaignRow> rows;
  int partitioned_trials = 0;

  /// RFC-4180 CSV, one line per row (the BENCH-entry artifact).
  std::string csv() const;

  /// JSON array of row objects (same fields as the CSV).
  std::string json() const;

  /// Human-readable per-(failures, pattern) means with improvement
  /// percentages of stale/remap over baseline.
  std::string summary() const;

  /// Machine-readable campaign metrics (tarr::trace registry schema
  /// `category,key,count,total,peak`): per-trial outcome counts and the
  /// aggregated transient-fault counters (drops, corruptions,
  /// retransmissions, retransmitted bytes, timeout wait).
  std::string metrics_csv() const;
};

/// Run the campaign.  Deterministic: same config, same result.  A trace
/// sink installed on the ambient channel (prof/obs.hpp) around the call
/// receives everything the campaign emits (tarr::trace): every priced run's
/// engine events, the mapping decision counters of every stale and remap
/// mapping, the aggregate counters and the "fault-campaign" wall span.
CampaignResult run_fault_campaign(const CampaignConfig& cfg);

}  // namespace tarr::fault
