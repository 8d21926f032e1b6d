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
  // One scope per heuristic run: the single choke point through which every
  // mapper (all five pattern heuristics, greedy-graph, scotch-like, the
  // baselines) is invoked, so per-mapper work nests under "map:<name>".
  prof::ProfScope pscope(std::string("map:") + name());
  std::vector<int> result = map(rank_to_slot, d, rng);
  check::verify_mapping(name(), rank_to_slot, result);
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
