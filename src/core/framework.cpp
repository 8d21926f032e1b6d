#include "core/framework.hpp"

#include "check/mapping_verifier.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "common/timer.hpp"
#include "mapping/comparators.hpp"
#include "mapping/heuristics.hpp"
#include "prof/obs.hpp"
#include "prof/profiler.hpp"

namespace tarr::core {

namespace {

/// `comm` reordered so that new rank j runs on new_rank_to_core[j], with its
/// §V-B bookkeeping: oldrank[new] = original rank of the process acting as
/// new rank `new`.
ReorderedComm reordered_to(const simmpi::Communicator& comm,
                           std::vector<CoreId> new_rank_to_core,
                           double map_seconds) {
  simmpi::Communicator reordered = comm.reordered(std::move(new_rank_to_core));
  const std::vector<Rank> old_to_new = comm.permutation_to(reordered);
  return ReorderedComm{std::move(reordered), invert_permutation(old_to_new),
                       map_seconds};
}

}  // namespace

ReorderFramework::ReorderFramework(const topology::Machine& m)
    : ReorderFramework(m, Options{}) {}

ReorderFramework::ReorderFramework(const topology::Machine& m, Options opts)
    : machine_(&m), opts_(opts) {}

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

ReorderedComm ReorderFramework::identity_reorder(
    const simmpi::Communicator& comm) const {
  return ReorderedComm{comm, identity_permutation(comm.size()), 0.0};
}

ReorderedComm ReorderFramework::reorder(const simmpi::Communicator& comm,
                                        mapping::Pattern pattern) {
  const auto mapper = mapping::make_heuristic(pattern);
  return reorder_with(comm, *mapper);
}

ReorderedComm ReorderFramework::reorder_with(const simmpi::Communicator& comm,
                                             const mapping::Mapper& mapper) {
  if (!opts_.enabled) return identity_reorder(comm);
  prof::ProfScope pscope("reorder");
  // Heuristics have pure signatures; their decision counters reach the sink
  // through the ambient channel.  A null framework sink keeps whatever sink
  // an outer scope installed.
  obs::Install ambient(sink_);
  const topology::DistanceMatrix& d = distances();

  WallTimer t;
  Rng rng(opts_.seed);
  std::vector<int> new_rank_to_core =
      mapper.checked_map(comm.rank_to_core(), d, rng);
  const double map_seconds = t.seconds();
  obs::wall_span("map:" + mapper.name(), map_seconds);

  return reordered_to(comm, std::move(new_rank_to_core), map_seconds);
}

ReorderedComm ReorderFramework::reorder_for_graph(
    const simmpi::Communicator& comm, const graph::WeightedGraph& pattern,
    GraphMapperKind kind) {
  if (!opts_.enabled) return identity_reorder(comm);
  prof::ProfScope pscope("reorder");
  TARR_REQUIRE(pattern.num_vertices() == comm.size(),
               "reorder_for_graph: pattern size != communicator size");
  obs::Install ambient(sink_);
  const topology::DistanceMatrix& d = distances();

  WallTimer t;
  Rng rng(opts_.seed);
  std::vector<int> new_rank_to_core =
      kind == GraphMapperKind::Greedy
          ? mapping::greedy_graph_map(pattern, comm.rank_to_core(), d, rng)
          : mapping::scotch_like_map(pattern, comm.rank_to_core(), rng);
  check::verify_mapping(kind == GraphMapperKind::Greedy ? "greedy-graph"
                                                        : "scotch-like",
                        comm.rank_to_core(), new_rank_to_core);
  const double map_seconds = t.seconds();
  obs::wall_span(kind == GraphMapperKind::Greedy ? "map:greedy-graph"
                                                 : "map:scotch-like",
                 map_seconds);

  return reordered_to(comm, std::move(new_rank_to_core), map_seconds);
}

ReorderedComm ReorderFramework::reorder_hierarchical(
    const simmpi::Communicator& comm, const mapping::Mapper& leader_mapper,
    const mapping::Mapper* intra_mapper) {
  if (!opts_.enabled) return identity_reorder(comm);
  prof::ProfScope pscope("reorder");
  TARR_REQUIRE(comm.node_contiguous(),
               "reorder_hierarchical: communicator must be node-contiguous");
  obs::Install ambient(sink_);
  const auto& m = *machine_;
  const int cpn = m.cores_per_node();
  const int nodes = comm.size() / cpn;
  const topology::DistanceMatrix node_dist = distances().node_level();
  const topology::DistanceMatrix intra_dist = distances().intra_level();

  WallTimer t;
  Rng rng(opts_.seed);

  // Leader level: "ranks" are node blocks in original order, slots are the
  // NodeIds hosting them.
  std::vector<int> block_to_node(nodes);
  for (int b = 0; b < nodes; ++b) block_to_node[b] = comm.node_of(b * cpn);
  const std::vector<int> new_block_to_node =
      leader_mapper.checked_map(block_to_node, node_dist, rng);

  // Original block index for each node (to find that node's rank group).
  std::vector<int> block_of_node(m.num_nodes(), -1);
  for (int b = 0; b < nodes; ++b) block_of_node[block_to_node[b]] = b;

  std::vector<CoreId> new_rank_to_core(comm.size());
  for (int nb = 0; nb < nodes; ++nb) {
    const NodeId node = new_block_to_node[nb];
    const int ob = block_of_node[node];
    // Intra level: the node's ranks in original order, slots are their
    // node-local cores.
    std::vector<int> local_slots(cpn);
    for (int k = 0; k < cpn; ++k)
      local_slots[k] = m.local_core(comm.core_of(ob * cpn + k));
    std::vector<int> new_local = local_slots;
    if (intra_mapper != nullptr)
      new_local = intra_mapper->checked_map(local_slots, intra_dist, rng);
    for (int k = 0; k < cpn; ++k)
      new_rank_to_core[nb * cpn + k] = m.core_id(node, new_local[k]);
  }
  // The two-level composition must still be a bijection onto the original
  // core set; a bug in the block/core bookkeeping above would otherwise
  // surface only as nonsense timings.
  check::verify_hierarchical_composition(comm.rank_to_core(),
                                         new_rank_to_core);
  const double map_seconds = t.seconds();
  obs::wall_span("map:hierarchical:" + leader_mapper.name(), map_seconds);

  return reordered_to(comm, std::move(new_rank_to_core), map_seconds);
}

ReorderedComm ReorderFramework::reorder_hierarchical(
    const simmpi::Communicator& comm, mapping::Pattern leader_pattern,
    bool intra_reorder, mapping::Pattern intra_pattern) {
  const auto leader = mapping::make_heuristic(leader_pattern);
  std::unique_ptr<mapping::Mapper> intra;
  if (intra_reorder) intra = mapping::make_heuristic(intra_pattern);
  return reorder_hierarchical(comm, *leader, intra.get());
}

}  // namespace tarr::core
