#include "collectives/schedules.hpp"

#include <string>

#include "collectives/allgather.hpp"
#include "collectives/allreduce.hpp"
#include "collectives/alltoall.hpp"
#include "collectives/contracts.hpp"
#include "collectives/gather_bcast.hpp"
#include "collectives/hierarchical.hpp"
#include "collectives/neighbor.hpp"
#include "collectives/reduce_barrier.hpp"
#include "common/error.hpp"

namespace tarr::collectives {
namespace {

using mapping::Pattern;
using RankVec = std::vector<Rank>;

Schedule allgather(const char* name, AllgatherAlgo algo, OrderFix fix,
                   Pattern pattern) {
  return {name, pattern, 1, true, false,
          [=](simmpi::Engine& e, const RankVec& o) {
            return run_allgather(e, {algo, fix}, o);
          },
          [=](int p, int b, const RankVec& o) {
            return contract_allgather(p, b, algo, o);
          }};
}

Schedule hier_allgather(const char* name, HierAllgatherOptions opts,
                        Pattern pattern) {
  return {name, pattern, 1, false, true,
          [=](simmpi::Engine& e, const RankVec& o) {
            return run_hier_allgather(e, opts, o);
          },
          [](int p, int b, const RankVec& o) {
            return contract_hier_allgather(p, b, o, false);
          }};
}

/// The pipelined leader exchange is a ring.
Schedule hier_pipelined(const char* name, IntraAlgo gather_algo) {
  return {name, Pattern::Ring, 1, false, true,
          [=](simmpi::Engine& e, const RankVec& o) {
            return run_hier_allgather_pipelined(e, gather_algo,
                                                OrderFix::InitComm, o);
          },
          [](int p, int b, const RankVec& o) {
            return contract_hier_allgather(p, b, o, true);
          }};
}

Schedule gather(const char* name, TreeAlgo algo, OrderFix fix) {
  return {name, Pattern::BinomialGather, 1, true, false,
          [=](simmpi::Engine& e, const RankVec& o) {
            return run_gather(e, algo, fix, o);
          },
          [=](int p, int b, const RankVec& o) {
            return contract_gather(p, b, algo, o);
          }};
}

Schedule bcast(const char* name, TreeAlgo algo) {
  return {name, Pattern::BinomialBcast, 0, true, false,
          [=](simmpi::Engine& e, const RankVec&) { return run_bcast(e, algo); },
          [=](int p, int b, const RankVec&) {
            return contract_bcast(p, b, algo);
          }};
}

Schedule bcast_scatter_allgather(const char* name, AllgatherAlgo ag) {
  return {name, Pattern::BinomialBcast, 1, false, false,
          [=](simmpi::Engine& e, const RankVec&) {
            return run_bcast_scatter_allgather(e, ag);
          },
          [=](int p, int b, const RankVec&) {
            return contract_bcast_scatter_allgather(p, b, ag);
          }};
}

Schedule scatter(const char* name, TreeAlgo algo) {
  return {name, Pattern::BinomialGather, 1, true, false,
          [=](simmpi::Engine& e, const RankVec& o) {
            return run_scatter(e, algo, o);
          },
          [=](int p, int b, const RankVec& o) {
            return contract_scatter(p, b, algo, o);
          }};
}

Schedule alltoall(const char* name, AlltoallAlgo algo) {
  return {name, Pattern::RecursiveDoubling, 2, true, false,
          [=](simmpi::Engine& e, const RankVec& o) {
            return run_alltoall(e, algo, o);
          },
          [=](int p, int b, const RankVec& o) {
            return contract_alltoall(p, b, algo, o);
          }};
}

// Built at program start, so no run that profiles its allocations (the
// `tarr` --prof flags) counts the table's own.
const std::vector<Schedule> kSchedules = {
      allgather("allgather-rd", AllgatherAlgo::RecursiveDoubling,
                OrderFix::InitComm, Pattern::RecursiveDoubling),
      allgather("allgather-rd-endshuffle", AllgatherAlgo::RecursiveDoubling,
                OrderFix::EndShuffle, Pattern::RecursiveDoubling),
      allgather("allgather-ring", AllgatherAlgo::Ring, OrderFix::None,
                Pattern::Ring),
      allgather("allgather-bruck", AllgatherAlgo::Bruck, OrderFix::None,
                Pattern::Bruck),
      {"allgather-neighbor", Pattern::Ring, 1, true, false,
       [](simmpi::Engine& e, const RankVec& o) {
         return run_allgather_neighbor(e, o);
       },
       [](int p, int b, const RankVec& o) {
         return contract_allgather(p, b, AllgatherAlgo::Ring, o);
       }},
      hier_allgather("hier-allgather",
                     {AllgatherAlgo::RecursiveDoubling, IntraAlgo::Binomial,
                      OrderFix::InitComm},
                     Pattern::RecursiveDoubling),
      hier_allgather(
          "hier-allgather-ring",
          {AllgatherAlgo::Ring, IntraAlgo::Linear, OrderFix::EndShuffle},
          Pattern::Ring),
      hier_pipelined("hier-allgather-pipelined", IntraAlgo::Binomial),
      hier_pipelined("hier-allgather-pipelined-linear", IntraAlgo::Linear),
      gather("gather-linear", TreeAlgo::Linear, OrderFix::None),
      gather("gather-binomial", TreeAlgo::Binomial, OrderFix::InitComm),
      gather("gather-binomial-endshuffle", TreeAlgo::Binomial,
             OrderFix::EndShuffle),
      bcast("bcast-linear", TreeAlgo::Linear),
      bcast("bcast-binomial", TreeAlgo::Binomial),
      bcast_scatter_allgather("bcast-scatter-allgather",
                              AllgatherAlgo::RecursiveDoubling),
      bcast_scatter_allgather("bcast-scatter-allgather-ring",
                              AllgatherAlgo::Ring),
      scatter("scatter-linear", TreeAlgo::Linear),
      scatter("scatter-binomial", TreeAlgo::Binomial),
      alltoall("alltoall-rotation", AlltoallAlgo::Rotation),
      alltoall("alltoall-pairwise", AlltoallAlgo::PairwiseXor),
      {"allreduce-rd", Pattern::RecursiveDoubling, 0, false, false,
       [](simmpi::Engine& e, const RankVec&) { return run_allreduce_rd(e); },
       [](int p, int b, const RankVec&) {
         return contract_allreduce_rd(p, b);
       }},
      {"allreduce-rabenseifner", Pattern::RecursiveDoubling, 1, false, false,
       [](simmpi::Engine& e, const RankVec&) {
         return run_allreduce_rabenseifner(e);
       },
       [](int p, int b, const RankVec&) {
         return contract_allreduce_rabenseifner(p, b);
       }},
      {"allreduce-ring", Pattern::Ring, 1, false, false,
       [](simmpi::Engine& e, const RankVec&) { return run_allreduce_ring(e); },
       [](int p, int b, const RankVec&) {
         return contract_allreduce_rabenseifner(p, b);
       }},
      {"reduce-binomial", Pattern::BinomialGather, 0, false, false,
       [](simmpi::Engine& e, const RankVec&) {
         return run_reduce_binomial(e);
       },
       [](int p, int b, const RankVec&) { return contract_reduce(p, b); }},
};

}  // namespace

const std::vector<Schedule>& schedules() { return kSchedules; }

const Schedule& find_schedule(std::string_view name) {
  for (const Schedule& s : schedules())
    if (name == s.name) return s;
  throw Error("unknown collective: " + std::string(name));
}

}  // namespace tarr::collectives
