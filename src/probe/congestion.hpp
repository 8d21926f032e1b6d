#pragma once

#include "fault/degraded.hpp"
#include "fault/fault_mask.hpp"
#include "topology/distance.hpp"
#include "topology/network.hpp"

/// \file congestion.hpp
/// Seeded multi-tenant background traffic, layered on tarr::fault.
///
/// Other tenants' flows do not cut links — they *take capacity away*.  The
/// model expresses one "epoch" of background traffic as a FaultMask made
/// exclusively of degrade_link_factor entries over the switch-to-switch
/// links (host uplinks are spared: tenant flows share cables only in the
/// switch fabric), which fault::DegradedTopology then realizes as a machine
/// with reduced per-link cable counts.  Every consumer downstream — the router,
/// the contention-pricing cost model, all five mappers — handles that
/// machine unchanged; congestion needed zero new mechanism below this file.
///
/// Churn: the congestion pattern of epoch e either persists from e-1 or
/// resamples, decided by a seeded coin of probability `churn` per epoch
/// boundary.  congestion_mask() is a pure function of (config, epoch) — no
/// hidden state, any epoch can be queried in any order, and two runs with
/// the same seed see the same tenant behavior (the property the adaptive
/// controller's determinism tests pin).
///
/// Distances: hop counts do not change under congestion, so the paper's
/// hop-based extract_distances would be blind to it.  A tenant-aware
/// "effective distance" weights every hop of the routed path by
/// pristine_capacity / surviving_capacity — a congested hop is
/// proportionally "longer".  These effective matrices are the ground truth
/// the oracle policy maps on and the quantity probe_distances measures
/// noisily.

namespace tarr::probe {

/// One tenant population's behavior.
struct CongestionConfig {
  std::uint64_t seed = 7;
  /// Probability a switch-to-switch link is congested in a resampled epoch.
  double link_prob = 0.3;
  /// Severity: a congested link keeps a capacity factor drawn uniformly
  /// from [min_factor, max_factor] (resolved to >= 1 cable).
  double min_factor = 0.25;
  double max_factor = 0.75;
  /// Probability the congestion pattern resamples at each epoch boundary
  /// (1 = fully independent epochs, 0 = frozen background traffic).
  double churn = 0.5;
};

/// Throws tarr::Error naming the first out-of-range field.
void validate(const CongestionConfig& cfg);

/// The background-traffic mask of `epoch` (>= 0).  Pure and deterministic;
/// see file comment for the churn semantics.  Epoch 0 is always a fresh
/// sample.
fault::FaultMask congestion_mask(const topology::SwitchGraph& g,
                                 const CongestionConfig& cfg, int epoch);

/// Node-level effective distances of a (congestion-)degraded topology:
/// kInterNodeBase + kPerHop * sum over routed hops of
/// (pristine capacity / surviving capacity).  Requires a mask with no hard
/// failures (link ids must be preserved 1:1); with an empty mask this
/// reproduces extract_node_distances exactly.  Composed with
/// extract_intranode_distances it is the oracle Mapper input under
/// congestion.
topology::DistanceMatrix effective_node_distances(
    const fault::DegradedTopology& topo);

}  // namespace tarr::probe
