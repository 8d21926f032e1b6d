#include "mapping/mapper.hpp"

#include "check/mapping_verifier.hpp"
#include "common/error.hpp"
#include "mapping/comparators.hpp"
#include "mapping/heuristics.hpp"
#include "prof/profiler.hpp"

namespace tarr::mapping {

std::vector<int> Mapper::checked_map(const std::vector<int>& rank_to_slot,
                                     const topology::DistanceMatrix& d,
                                     Rng& rng) const {
  // One scope per mapper run: the single choke point through which every
  // mapper (the five pattern heuristics, the graph mappers, the baselines,
  // a hierarchical mapper and both its levels) is invoked, so per-mapper
  // work nests under "map:<name>".
  prof::ProfScope pscope(std::string("map:") + name());
  std::vector<int> result = map(rank_to_slot, d, rng);
  check::verify_mapping(name(), rank_to_slot, result);
  return result;
}

std::vector<int> HierarchicalMapper::map(const std::vector<int>& rank_to_slot,
                                         const topology::DistanceMatrix& d,
                                         Rng& rng) const {
  const int cpn = d.cores_per_node();
  const int p = static_cast<int>(rank_to_slot.size());
  TARR_REQUIRE(p % cpn == 0,
               "HierarchicalMapper: ranks must fill whole nodes");
  const int blocks = p / cpn;
  // Leader level: "ranks" are node blocks in original order, slots are the
  // nodes hosting them.
  std::vector<int> block_to_node(blocks);
  for (int r = 0; r < p; ++r) {
    const int slot = rank_to_slot[r];
    TARR_REQUIRE(slot >= 0 && slot < d.size() &&
                     slot / cpn == rank_to_slot[r - r % cpn] / cpn,
                 "HierarchicalMapper: input must be node-contiguous");
    block_to_node[r / cpn] = slot / cpn;
  }
  const std::vector<int> new_block_to_node =
      leader_->checked_map(block_to_node, d.node_level(), rng);

  // Original block index for each node (to find that node's rank group).
  std::vector<int> block_of_node(d.num_nodes(), -1);
  for (int b = 0; b < blocks; ++b) block_of_node[block_to_node[b]] = b;

  const topology::DistanceMatrix intra_dist = d.intra_level();
  std::vector<int> result(p);
  std::vector<int> local_slots(cpn);
  for (int nb = 0; nb < blocks; ++nb) {
    const int node = new_block_to_node[nb];
    const int ob = block_of_node[node];
    // Intra level: the node's ranks in original order, slots are their
    // node-local cores.
    for (int k = 0; k < cpn; ++k)
      local_slots[k] = rank_to_slot[ob * cpn + k] % cpn;
    const std::vector<int> new_local =
        intra_ != nullptr ? intra_->checked_map(local_slots, intra_dist, rng)
                          : local_slots;
    for (int k = 0; k < cpn; ++k)
      result[nb * cpn + k] = node * cpn + new_local[k];
  }
  return result;
}

const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::RecursiveDoubling:
      return "recursive-doubling";
    case Pattern::Ring:
      return "ring";
    case Pattern::BinomialBcast:
      return "binomial-bcast";
    case Pattern::BinomialGather:
      return "binomial-gather";
    case Pattern::Bruck:
      return "bruck";
  }
  return "?";
}

std::unique_ptr<Mapper> make_heuristic(Pattern p) {
  switch (p) {
    case Pattern::RecursiveDoubling:
      return std::make_unique<RdmhMapper>();
    case Pattern::Ring:
      return std::make_unique<RmhMapper>();
    case Pattern::BinomialBcast:
      return std::make_unique<BbmhMapper>();
    case Pattern::BinomialGather:
      return std::make_unique<BgmhMapper>();
    case Pattern::Bruck:
      return std::make_unique<BkmhMapper>();
  }
  TARR_REQUIRE(false, "make_heuristic: unknown pattern");
  return nullptr;
}

std::unique_ptr<Mapper> make_mvapich_cyclic_mapper(int slots_per_node) {
  return std::make_unique<MvapichCyclicMapper>(slots_per_node);
}

std::unique_ptr<Mapper> make_greedy_graph_mapper(Pattern p) {
  return std::make_unique<GreedyGraphMapper>(p);
}

std::unique_ptr<Mapper> make_scotch_like_mapper(Pattern p) {
  return std::make_unique<ScotchLikeMapper>(p);
}

}  // namespace tarr::mapping
