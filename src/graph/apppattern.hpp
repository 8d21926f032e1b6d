#pragma once

#include "graph/graph.hpp"

/// \file apppattern.hpp
/// Application communication-pattern builders — the "general forms of
/// topology-aware mapping" case of §V, where the pattern changes from one
/// application to another and is supplied to a general mapping algorithm as
/// a weighted graph.  These are the guest graphs of classic HPC codes.

namespace tarr::graph {

/// 2D halo-exchange (5-point stencil) over an nx x ny process grid, row-
/// major ranks, non-periodic.  Edge weight = bytes exchanged per boundary
/// (relative units).
WeightedGraph stencil2d_pattern(int nx, int ny, double weight = 1.0);

}  // namespace tarr::graph
