#include "core/refine.hpp"

#include <utility>

#include "collectives/allgather.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "prof/profiler.hpp"
#include "simmpi/engine.hpp"

namespace tarr::core {

RefineResult refine_by_simulation(const simmpi::Communicator& original,
                                  const ReorderedComm& start,
                                  const MappingObjective& objective,
                                  const RefineOptions& opts) {
  const int p = original.size();
  TARR_REQUIRE(start.comm.size() == p,
               "refine_by_simulation: size mismatch");
  TARR_REQUIRE(opts.max_swaps >= 0, "refine_by_simulation: negative budget");
  prof::ProfScope pscope("refine");
  WallTimer timer;
  Rng rng(opts.seed);

  std::vector<CoreId> cores = start.comm.rank_to_core();
  std::vector<Rank> oldrank = start.oldrank;

  const Usec start_objective = objective(start.comm, oldrank);
  Usec best = start_objective;
  int evaluations = 1;
  int accepted = 0;

  for (int it = 0; it < opts.max_swaps && p >= 2; ++it) {
    // Propose swapping the placements (and identities) of two new ranks.
    const Rank a = static_cast<Rank>(rng.next_below(p));
    Rank b = static_cast<Rank>(rng.next_below(p - 1));
    if (b >= a) ++b;
    std::swap(cores[a], cores[b]);
    std::swap(oldrank[a], oldrank[b]);

    const simmpi::Communicator candidate = original.reordered(cores);
    const Usec t = objective(candidate, oldrank);
    ++evaluations;
    if (t < best) {
      best = t;
      ++accepted;
    } else {
      std::swap(cores[a], cores[b]);  // revert
      std::swap(oldrank[a], oldrank[b]);
    }
  }

  const double seconds = timer.seconds();
  obs::count("refine.swaps_accepted", accepted);
  obs::count("refine.swaps_rejected", evaluations - 1 - accepted);
  obs::wall_span("refine", seconds);
  prof::count("refine.evaluations", evaluations);
  return RefineResult{
      ReorderedComm{original.reordered(cores), std::move(oldrank),
                    start.mapping_seconds + seconds},
      start_objective, best, accepted, evaluations};
}

MappingObjective allgather_objective(collectives::AllgatherAlgo algo,
                                     Bytes msg, collectives::OrderFix fix,
                                     const simmpi::CostConfig& cost) {
  return [algo, msg, fix, cost](const simmpi::Communicator& comm,
                                const std::vector<Rank>& oldrank) {
    simmpi::Engine eng(comm, cost, simmpi::ExecMode::Timed, msg,
                       comm.size());
    return collectives::run_allgather(
        eng, collectives::AllgatherOptions{algo, fix}, oldrank);
  };
}

}  // namespace tarr::core
