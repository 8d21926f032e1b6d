#pragma once

#include <functional>

#include "collectives/collective.hpp"
#include "core/framework.hpp"
#include "simmpi/costmodel.hpp"

/// \file refine.hpp
/// Simulation-guided mapping refinement — an extension beyond the paper
/// made possible by having the cost model at hand: starting from any
/// mapping (a heuristic's output, or the identity), hill-climb over rank
/// swaps using the *predicted collective latency* as the objective.  Where
/// the heuristics optimize a proxy (weighted distance), the refiner
/// optimizes the quantity the user actually cares about, at the price of
/// one simulation per candidate swap.

namespace tarr::core {

/// Objective: predicted latency of the target collective on a candidate
/// reordering (communicator + oldrank permutation).  Smaller is better.
using MappingObjective = std::function<Usec(
    const simmpi::Communicator& comm, const std::vector<Rank>& oldrank)>;

/// Options for the refinement loop.
struct RefineOptions {
  /// Candidate swaps to try (each costs one objective evaluation).
  int max_swaps = 200;
  /// Tie-break / proposal seed.
  std::uint64_t seed = 1;
};

/// Result of a refinement run.  (No default constructor: `mapping` always
/// holds a concrete communicator.)
struct RefineResult {
  ReorderedComm mapping;  ///< the best mapping found
  Usec start_objective;
  Usec final_objective;
  int accepted_swaps;
  int evaluations;
};

/// Hill-climb from `start` (a reordering of `original`): propose random
/// rank-pair swaps, keep those that lower the objective.  Never returns a
/// mapping worse than `start`.  The wall-clock cost of the search is
/// reported in mapping.mapping_seconds (added to start's).
RefineResult refine_by_simulation(const simmpi::Communicator& original,
                                  const ReorderedComm& start,
                                  const MappingObjective& objective,
                                  const RefineOptions& opts = RefineOptions{});

/// Convenience objective: flat allgather latency of `algo` with the given
/// per-rank message size and order fix, under `cost`.  Each evaluation
/// builds an engine, and an engine takes the sink installed on the ambient
/// channel (prof/obs.hpp): a sink installed around refine_by_simulation
/// with this objective sees every candidate simulation, not only the
/// refinement's counters and wall span.  fig7 and ext_simrefine refine
/// untraced.
MappingObjective allgather_objective(collectives::AllgatherAlgo algo,
                                     Bytes msg, collectives::OrderFix fix,
                                     const simmpi::CostConfig& cost);

}  // namespace tarr::core
