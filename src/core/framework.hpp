#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "mapping/mapper.hpp"
#include "simmpi/communicator.hpp"
#include "topology/distance.hpp"
#include "topology/machine.hpp"
#include "trace/sink.hpp"

/// \file framework.hpp
/// The run-time rank-reordering framework of §IV — the paper's primary
/// public API.
///
/// Usage mirrors the paper: physical distances are extracted once and
/// cached; for each collective communication pattern, a reordered copy of
/// the communicator is created once; subsequent collective calls are
/// conducted over the reordered copy.  The MPI info key the paper proposes
/// to switch the approach off lives in core/info.hpp, and both overhead
/// components the paper measures (Fig 7a distance extraction, Fig 7b
/// mapping time) are reported to the caller.

namespace tarr::core {

/// A reordered communicator plus its §V-B bookkeeping and overheads.
struct ReorderedComm {
  simmpi::Communicator comm;        ///< the reordered communicator
  std::vector<Rank> oldrank;        ///< oldrank[new_rank] = original rank
  double mapping_seconds = 0.0;     ///< wall-clock cost of the mapping run
};

/// See file comment.
class ReorderFramework {
 public:
  /// Framework options.
  struct Options {
    std::uint64_t seed = 1;  ///< tie-breaking seed (Algorithm 1 step 5)
  };

  /// The machine must outlive the framework.
  explicit ReorderFramework(const topology::Machine& m);
  ReorderFramework(const topology::Machine& m, Options opts);

  const topology::Machine& machine() const { return *machine_; }
  const Options& options() const { return opts_; }

  /// Core-level distance matrix; extracted lazily once, then cached.  The
  /// hierarchical reorders read its node level and intra level.
  const topology::DistanceMatrix& distances();

  /// Wall-clock seconds the one-time distance extraction took (0 until the
  /// first distances() call) — the quantity of Fig 7a.
  double distance_extraction_seconds() const { return extract_seconds_; }

  /// Trace sink (tarr::trace) of the framework's own calls: it is installed
  /// on the ambient channel (prof/obs.hpp) around distance extraction and
  /// each mapping run, so the Fig 7 overhead decomposition as wall-clock
  /// spans ("distance-extraction", "map:<mapper>") and the heuristics'
  /// decision counters (placements, tie-breaks, bisection levels) reach it.
  /// nullptr (the default) keeps whatever sink the caller installed there.
  /// Everywhere else a sink is installed with obs::Install; this setter and
  /// TopoAllgather's remain because perfbench/ calls both.
  void set_trace_sink(trace::TraceSink* sink) { sink_ = sink; }

  /// Reorder `comm` for `pattern` with the paper's fine-tuned heuristic.
  ReorderedComm reorder(const simmpi::Communicator& comm,
                        mapping::Pattern pattern);

  /// Reorder `comm` with an arbitrary mapper (Scotch-like, greedy, ...).
  ReorderedComm reorder_with(const simmpi::Communicator& comm,
                             const mapping::Mapper& mapper);

  /// Mapping engines for arbitrary pattern graphs.  Bisection (recursive
  /// bipartitioning) handles uniform-weight patterns such as halo stencils
  /// well; Greedy (heaviest-frontier-edge-first, Hoefler-Snir style) suits
  /// patterns with a pronounced weight hierarchy.
  enum class GraphMapperKind { Bisection, Greedy };

  /// General topology-aware mapping (§V's "general forms"): reorder `comm`
  /// for an arbitrary application communication pattern supplied as a
  /// weighted graph (vertex i = rank i, weights = relative traffic).  This
  /// is the path an application with a custom pattern (halo stencil,
  /// particle code, ...) uses; see graph/apppattern.hpp for ready-made
  /// builders.
  ReorderedComm reorder_for_graph(
      const simmpi::Communicator& comm, const graph::WeightedGraph& pattern,
      GraphMapperKind kind = GraphMapperKind::Bisection);

  /// Hierarchical reorder (§VI-A2): `leader_mapper` rearranges whole node
  /// blocks using node-to-node network distances, and `intra_mapper`
  /// (nullptr for the linear intra phases, which admit no reordering)
  /// rearranges each node's ranks using intra-node distances.  Requires a
  /// node-contiguous communicator; the result is again node-contiguous.
  ReorderedComm reorder_hierarchical(const simmpi::Communicator& comm,
                                     const mapping::Mapper& leader_mapper,
                                     const mapping::Mapper* intra_mapper);

 private:
  const topology::Machine* machine_;
  Options opts_;
  std::optional<topology::DistanceMatrix> dist_;
  double extract_seconds_ = 0.0;
  trace::TraceSink* sink_ = nullptr;
};

}  // namespace tarr::core
