#pragma once

#include <map>
#include <optional>

#include "collectives/allgather.hpp"
#include "collectives/hierarchical.hpp"
#include "core/framework.hpp"
#include "core/mappers.hpp"
#include "simmpi/engine.hpp"
#include "trace/sink.hpp"

/// \file topoallgather.hpp
/// High-level topology-aware MPI_Allgather: the user-facing composition of
/// the whole stack.  A TopoAllgather object plays the role of an MPI
/// communicator whose allgather has been made topology-aware: at first use
/// of each underlying algorithm it creates the reordered communicator once
/// (per §IV, "the whole rank reordering process happens only once at
/// run-time"), then every call routes through the reordered copy with the
/// configured §V-B order fix.

namespace tarr::core {

/// Configuration of a TopoAllgather instance.
struct TopoAllgatherConfig {
  MapperKind mapper = MapperKind::Heuristic;
  collectives::OrderFix fix = collectives::OrderFix::InitComm;
  simmpi::CostConfig cost;
  bool hierarchical = false;
  collectives::IntraAlgo intra = collectives::IntraAlgo::Binomial;
  /// Pattern the intra-node level of a hierarchical reorder is tuned for
  /// (BBMH by default — phase 3 moves the combined buffer and dominates the
  /// intra-node byte volume; see abl_hier_intra).
  mapping::Pattern hier_intra_pattern = mapping::Pattern::BinomialBcast;
};

/// See file comment.
class TopoAllgather {
 public:
  /// `framework` and `comm`'s machine must outlive this object.
  TopoAllgather(ReorderFramework& framework, simmpi::Communicator comm,
                TopoAllgatherConfig cfg);

  const TopoAllgatherConfig& config() const { return cfg_; }
  const simmpi::Communicator& original_comm() const { return comm_; }

  /// Simulated latency (Timed mode) of one allgather with a per-rank
  /// message of `msg` bytes.
  Usec latency(Bytes msg);

  /// Execute in Data mode, check the run against the contract of the
  /// algorithm it ran (contract_allgather or contract_hier_allgather: every
  /// rank's output vector in original-rank order), and return the simulated
  /// time.  Intended for small communicators (allocates p*p block tags and
  /// p*p contract slots).
  Usec run_and_check(Bytes msg);

  /// Sum of wall-clock mapping overheads of every reorder performed so far
  /// (the Fig 7b quantity for this object).
  double mapping_seconds() const { return mapping_seconds_; }

  /// The reordered communicator that a message of `msg` bytes would use
  /// (creating it if needed).
  const ReorderedComm& reordered_for(Bytes msg);

  /// Observability (tarr::trace): latency() and run_and_check() install
  /// `sink` on the ambient channel (prof/obs.hpp) around their body, so the
  /// engine each creates emits its stages, transfers and link/QPI loads
  /// through it, and reorders triggered on first use emit their Fig 7 wall
  /// spans and mapping decision counters too.  `sink` must outlive the
  /// traced calls.  nullptr (the default) installs nothing: the calls then
  /// emit into whatever sink their caller installed, engine events
  /// included.
  void set_trace_sink(trace::TraceSink* sink) { sink_ = sink; }

 private:
  /// The algorithm the selector picks for a per-rank message of `msg`
  /// bytes; when hierarchical, the leader algorithm over node chunks (Bruck
  /// becomes the ring there).
  collectives::AllgatherAlgo algo_for(Bytes msg) const;
  /// The cache entry of `algo`, filled on first use: the reordered
  /// communicator its runs use, or nullptr when they run un-reordered.
  const ReorderedComm* entry_for(collectives::AllgatherAlgo algo);
  Usec execute(simmpi::ExecMode mode, Bytes msg);

  ReorderFramework* framework_;
  simmpi::Communicator comm_;
  TopoAllgatherConfig cfg_;
  /// One entry per algorithm (leader algorithm when hierarchical) the
  /// selector picked.
  std::map<collectives::AllgatherAlgo, std::optional<ReorderedComm>> cache_;
  double mapping_seconds_ = 0.0;
  trace::TraceSink* sink_ = nullptr;
};

}  // namespace tarr::core
