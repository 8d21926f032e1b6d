#include "core/topoallgather.hpp"

#include "collectives/contracts.hpp"
#include "collectives/selector.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "prof/obs.hpp"

namespace tarr::core {

using collectives::AllgatherAlgo;
using collectives::IntraAlgo;
using collectives::OrderFix;

namespace {

mapping::Pattern pattern_of(AllgatherAlgo algo) {
  switch (algo) {
    case AllgatherAlgo::RecursiveDoubling:
      return mapping::Pattern::RecursiveDoubling;
    case AllgatherAlgo::Ring:
      return mapping::Pattern::Ring;
    case AllgatherAlgo::Bruck:
      return mapping::Pattern::Bruck;
  }
  TARR_REQUIRE(false, "pattern_of: unknown algorithm");
  return mapping::Pattern::Ring;
}

}  // namespace

TopoAllgather::TopoAllgather(ReorderFramework& framework,
                             simmpi::Communicator comm,
                             TopoAllgatherConfig cfg)
    : framework_(&framework), comm_(std::move(comm)), cfg_(cfg) {
  TARR_REQUIRE(!(cfg_.hierarchical && cfg_.mapper == MapperKind::MvapichCyclic),
               "TopoAllgather: the MVAPICH cyclic reorder is a flat scheme");
}

AllgatherAlgo TopoAllgather::algo_for(Bytes msg) const {
  if (!cfg_.hierarchical)
    return collectives::select_allgather_algo(comm_.size(), msg);
  const int cpn = comm_.machine().cores_per_node();
  // Node chunks of cpn blocks travel between leaders.
  const AllgatherAlgo algo =
      collectives::select_allgather_algo(comm_.size() / cpn, msg * cpn);
  return algo == AllgatherAlgo::Bruck ? AllgatherAlgo::Ring : algo;
}

const ReorderedComm* TopoAllgather::entry_for(AllgatherAlgo algo) {
  if (const auto it = cache_.find(algo); it != cache_.end())
    return it->second ? &*it->second : nullptr;

  const int cpn = comm_.machine().cores_per_node();
  std::optional<ReorderedComm> rc;
  if (cfg_.mapper == MapperKind::None) {
    // MVAPICH's own internal block->cyclic reorder for recursive doubling
    // (§V-A1: "the rank reordering in MVAPICH just changes a block initial
    // layout of processes to a cyclic one") is part of the baseline.  Like
    // the real library it fires only for node-contiguous layouts, and it is
    // not an overhead this object introduced: the cyclic RD variant indexes
    // blocks in place.
    if (!cfg_.hierarchical && algo == AllgatherAlgo::RecursiveDoubling &&
        comm_.node_contiguous()) {
      const auto cyclic =
          mapper_row(MapperKind::MvapichCyclic).make(pattern_of(algo), cpn);
      rc = framework_->reorder_with(comm_, *cyclic);
      rc->mapping_seconds = 0.0;
    }
  } else {
    const MapperRow& row = mapper_row(cfg_.mapper);
    const auto leader = row.make(pattern_of(algo), cpn);
    if (!cfg_.hierarchical) {
      rc = framework_->reorder_with(comm_, *leader);
    } else {
      // Linear intra phases admit no reordering.
      const auto intra = cfg_.intra == IntraAlgo::Binomial
                             ? row.make(cfg_.hier_intra_pattern, cpn)
                             : nullptr;
      rc = framework_->reorder_hierarchical(comm_, *leader, intra.get());
    }
  }
  if (rc) mapping_seconds_ += rc->mapping_seconds;
  // Inserted only once the reorder returned: one that throws throws again
  // on the next call.
  const auto& entry = cache_.emplace(algo, std::move(rc)).first->second;
  return entry ? &*entry : nullptr;
}

Usec TopoAllgather::execute(simmpi::ExecMode mode, Bytes msg) {
  // The ambient channel carries the trace into reorders performed on first
  // use (a framework without a sink of its own keeps it) and into the
  // engine below.
  obs::Install ambient(sink_);
  const int p = comm_.size();
  const AllgatherAlgo algo = algo_for(msg);

  const ReorderedComm* rc = entry_for(algo);
  OrderFix fix = OrderFix::None;
  if (cfg_.mapper != MapperKind::None) {
    fix = cfg_.fix;
  } else if (rc != nullptr && mode == simmpi::ExecMode::Data) {
    // The baseline's in-place indexing is represented by an explicit end
    // shuffle in Data mode, so the output check still applies.
    fix = OrderFix::EndShuffle;
  }
  const simmpi::Communicator& use_comm = rc ? rc->comm : comm_;
  const std::vector<Rank> oldrank =
      rc ? rc->oldrank : identity_permutation(p);

  simmpi::Engine eng(use_comm, cfg_.cost, mode, msg, p);
  if (cfg_.hierarchical) {
    collectives::HierAllgatherOptions opts{algo, cfg_.intra, fix};
    collectives::run_hier_allgather(eng, opts, oldrank);
  } else {
    collectives::AllgatherOptions opts{algo, fix};
    collectives::run_allgather(eng, opts, oldrank);
  }
  if (mode == simmpi::ExecMode::Data) {
    collectives::check_output(
        eng, cfg_.hierarchical
                 ? collectives::contract_hier_allgather(p, p, oldrank, false)
                 : collectives::contract_allgather(p, p, algo, oldrank));
  }
  return eng.total();
}

Usec TopoAllgather::latency(Bytes msg) {
  return execute(simmpi::ExecMode::Timed, msg);
}

Usec TopoAllgather::run_and_check(Bytes msg) {
  return execute(simmpi::ExecMode::Data, msg);
}

const ReorderedComm& TopoAllgather::reordered_for(Bytes msg) {
  TARR_REQUIRE(cfg_.mapper != MapperKind::None,
               "reordered_for: no mapper configured");
  return *entry_for(algo_for(msg));
}

}  // namespace tarr::core
