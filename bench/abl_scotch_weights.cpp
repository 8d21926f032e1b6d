// Ablation: why does the general-purpose mapper lose on recursive doubling?
// A structure-only recursive bipartitioning (our default, matching the poor
// Scotch mappings the paper measures) cannot distinguish the heavy
// last-stage hypercube dimension from the light first-stage one; giving the
// mapper the per-stage volume weights recovers most of the quality — at the
// cost of exactly the pattern knowledge the fine-tuned heuristics encode.
// Each row's weighted cost is gated as <row>.weighted_cost.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "common/table.hpp"
#include "mapping/comparators.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/mapcost.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;

  BenchWorld world(kPaperNodes);
  SnapshotEmitter snapshot("abl_scotch_weights");
  snapshot.set_meta("nodes", std::to_string(kPaperNodes));
  snapshot.set_meta("procs", std::to_string(kPaperProcs));
  const int p = kPaperProcs;
  const auto& dist = world.framework.distances();
  const auto pattern = mapping::build_pattern_graph(
      mapping::Pattern::RecursiveDoubling, p);
  const auto comm = world.comm(p, simmpi::LayoutSpec{});
  const std::vector<int> initial(comm.rank_to_core().begin(),
                                 comm.rank_to_core().end());

  std::printf(
      "Ablation — Scotch-like mapper with/without edge-volume weights,\n"
      "recursive-doubling pattern, %d processes, block-bunch initial\n\n",
      p);

  TextTable t;
  t.set_header({"mapper", "weighted cost"});
  const auto row = [&](const char* label, const char* key,
                       const std::vector<int>& mapping) {
    const double cost = mapping::mapping_cost(pattern, mapping, dist);
    t.add_row({label, TextTable::num(cost, 0)});
    snapshot.add_metric(std::string(key) + ".weighted_cost", cost, "dist",
                        /*higher_is_better=*/false);
  };
  row("initial mapping", "initial", initial);

  struct Variant {
    const char* name;
    const char* key;
    std::vector<int> result;
  };
  Rng r1(1), r2(1), r3(1);
  mapping::ScotchLikeMapper structural(mapping::Pattern::RecursiveDoubling,
                                       /*use_edge_weights=*/false);
  mapping::ScotchLikeMapper weighted(mapping::Pattern::RecursiveDoubling,
                                     /*use_edge_weights=*/true);
  mapping::RdmhMapper rdmh;
  const Variant variants[] = {
      {"scotch-like, structure only (default)", "structure_only",
       structural.map(initial, dist, r1)},
      {"scotch-like, volume weighted", "volume_weighted",
       weighted.map(initial, dist, r2)},
      {"RDMH (fine-tuned heuristic)", "rdmh", rdmh.map(initial, dist, r3)},
  };
  for (const auto& v : variants) row(v.name, v.key, v.result);
  std::printf("%s", t.render().c_str());
  snapshot.dump();
  return 0;
}
