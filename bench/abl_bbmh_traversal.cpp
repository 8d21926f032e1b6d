// Ablation: BBMH tree-traversal order (§V-A3 discusses the alternatives).
// The paper picks the DFT variation that visits smaller subtrees first; this
// bench contrasts it with largest-subtree-first (the [10]-style choice) and
// plain level order, on both the weighted-cost metric and the simulated
// broadcast latency.  Its snapshot gates every cell of the table.

#include <cstdio>
#include <string>

#include "bench/fixtures.hpp"
#include "collectives/gather_bcast.hpp"
#include "common/table.hpp"
#include "mapping/comparators.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/mapcost.hpp"
#include "simmpi/engine.hpp"
#include "topology/distance.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;

  BenchWorld world(kPaperNodes);
  SnapshotEmitter snapshot("abl_bbmh_traversal");
  snapshot.set_meta("nodes", std::to_string(kPaperNodes));
  snapshot.set_meta("procs", std::to_string(kPaperProcs));
  const int p = kPaperProcs;
  const auto& dist = world.framework.distances();
  const auto pattern =
      mapping::build_pattern_graph(mapping::Pattern::BinomialBcast, p);
  const simmpi::LayoutSpec spec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Scatter};
  const auto comm = world.comm(p, spec);
  const std::vector<int> initial(comm.rank_to_core().begin(),
                                 comm.rank_to_core().end());

  struct Variant {
    const char* name;
    const char* key;  ///< snapshot metric prefix
    mapping::BbmhTraversal order;
  };
  const Variant variants[] = {
      {"small-subtree-first (paper)", "small_subtree_first",
       mapping::BbmhTraversal::SmallSubtreeFirst},
      {"large-subtree-first", "large_subtree_first",
       mapping::BbmhTraversal::LargeSubtreeFirst},
      {"level-order (BFT)", "level_order", mapping::BbmhTraversal::LevelOrder},
  };
  auto gate = [&](const std::string& key, double cost, Usec lat) {
    snapshot.add_metric(key + ".weighted_cost", cost, "dist",
                        /*higher_is_better=*/false);
    snapshot.add_metric(key + ".bcast_64KiB", lat, "usec",
                        /*higher_is_better=*/false);
  };

  std::printf(
      "Ablation — BBMH traversal order, binomial bcast, %d processes,\n"
      "initial mapping %s\n\n",
      p, simmpi::to_string(spec).c_str());

  TextTable t;
  t.set_header({"traversal", "weighted cost", "bcast 64KB (us)"});
  {
    // Baseline: the unmodified initial mapping.
    simmpi::Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed,
                       64 * 1024, 1);
    const Usec lat = collectives::run_bcast(eng, collectives::TreeAlgo::Binomial);
    const double cost = mapping::mapping_cost(pattern, initial, dist);
    t.add_row({"initial mapping", TextTable::num(cost, 0),
               TextTable::num(lat, 1)});
    gate("initial", cost, lat);
  }
  for (const auto& v : variants) {
    Rng rng(1);
    mapping::BbmhMapper mapper(v.order);
    const auto result = mapper.map(initial, dist, rng);
    const auto reordered = comm.reordered(result);
    simmpi::Engine eng(reordered, simmpi::CostConfig{},
                       simmpi::ExecMode::Timed, 64 * 1024, 1);
    const Usec lat = collectives::run_bcast(eng, collectives::TreeAlgo::Binomial);
    const double cost = mapping::mapping_cost(pattern, result, dist);
    t.add_row({v.name, TextTable::num(cost, 0), TextTable::num(lat, 1)});
    gate(v.key, cost, lat);
  }
  std::printf("%s", t.render().c_str());
  snapshot.dump();
  return 0;
}
