#include "core/framework.hpp"

#include "common/timer.hpp"
#include "prof/obs.hpp"
#include "prof/profiler.hpp"

namespace tarr::core {

ReorderFramework::ReorderFramework(const topology::Machine& m,
                                   std::uint64_t seed)
    : machine_(&m), seed_(seed) {}

const topology::DistanceMatrix& ReorderFramework::distances() {
  if (!dist_) {
    obs::Install ambient(sink_);
    WallTimer t;
    dist_.emplace(topology::extract_distances(*machine_));
    extract_seconds_ = t.seconds();
    obs::wall_span("distance-extraction", extract_seconds_);
  }
  return *dist_;
}

ReorderedComm ReorderFramework::reorder(const simmpi::Communicator& comm,
                                        mapping::Pattern pattern) {
  return reorder_with(comm, *mapping::make_heuristic(pattern));
}

ReorderedComm ReorderFramework::reorder_with(const simmpi::Communicator& comm,
                                             const mapping::Mapper& mapper) {
  prof::ProfScope pscope("reorder");
  // Heuristics have pure signatures; their decision counters reach the sink
  // through the ambient channel.  A null framework sink keeps whatever sink
  // an outer scope installed.
  obs::Install ambient(sink_);
  const topology::DistanceMatrix& d = distances();

  WallTimer t;
  Rng rng(seed_);
  std::vector<CoreId> new_rank_to_core =
      mapper.checked_map(comm.rank_to_core(), d, rng);
  const double map_seconds = t.seconds();
  obs::wall_span("map:" + mapper.name(), map_seconds);

  simmpi::Communicator reordered = comm.reordered(std::move(new_rank_to_core));
  std::vector<Rank> oldrank = comm.oldrank_of(reordered);
  return ReorderedComm{std::move(reordered), std::move(oldrank), map_seconds};
}

}  // namespace tarr::core
