#pragma once

#include "mapping/mapper.hpp"

/// \file heuristics.hpp
/// The paper's four fine-tuned mapping heuristics (Algorithms 2-5) plus the
/// Bruck extension (§VII future work).  Each heuristic instantiates the
/// Algorithm-1 scheme with a pattern-specific process-selection order and
/// reference-core update rule; none of them builds a process topology graph.
///
/// The concrete classes expose the knobs the paper discusses so the ablation
/// benchmarks can compare design choices (e.g. BBMH's traversal order).

namespace tarr::mapping {

/// RDMH — recursive doubling (Algorithm 2).  Selects peers of the reference
/// from the furthest (largest-message) stage first; the reference advances
/// after `ref_update_period` processes have been placed around it (2 in the
/// paper).  Requires a power-of-two number of ranks.
class RdmhMapper : public Mapper {
 public:
  /// `ref_update_period` < 1 means "never update the reference".
  explicit RdmhMapper(int ref_update_period = 2)
      : period_(ref_update_period) {}
  std::string name() const override { return "RDMH"; }
  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng& rng) const override;

 private:
  int period_;
};

/// RMH — ring (Algorithm 3): walk ranks in increasing order, each mapped as
/// close as possible to its predecessor, which becomes the new reference.
class RmhMapper : public Mapper {
 public:
  std::string name() const override { return "RMH"; }
  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng& rng) const override;
};

/// Traversal orders for BBMH (§V-A3 discusses these alternatives).
enum class BbmhTraversal {
  SmallSubtreeFirst,  ///< the paper's choice (Algorithm 4)
  LargeSubtreeFirst,  ///< the [10]-style alternative the paper contrasts
  LevelOrder,         ///< breadth-first by broadcast stage
};

/// BBMH — binomial broadcast (Algorithm 4): recursive traversal of the
/// binomial tree, each child mapped as close as possible to its parent.
class BbmhMapper : public Mapper {
 public:
  explicit BbmhMapper(BbmhTraversal order = BbmhTraversal::SmallSubtreeFirst)
      : order_(order) {}
  std::string name() const override { return "BBMH"; }
  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng& rng) const override;

 private:
  BbmhTraversal order_;
};

/// BGMH — binomial gather (Algorithm 5): heaviest-edge-first over the
/// binomial tree; every mapped rank joins the set of potential references.
class BgmhMapper : public Mapper {
 public:
  std::string name() const override { return "BGMH"; }
  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng& rng) const override;
};

/// BKMH — Bruck allgather (future-work extension): RDMH-style scheme with
/// the Bruck peer relation (ref + 2^k mod p), furthest stage first, the
/// reference advancing every two placements.  Works for any communicator
/// size.
class BkmhMapper : public Mapper {
 public:
  std::string name() const override { return "BKMH"; }
  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng& rng) const override;
};

}  // namespace tarr::mapping
