// Ablation: RDMH reference-core update period.  Algorithm 2 advances the
// reference after every *two* processes mapped around it (the paper derives
// this from the recursive-doubling stage structure); this bench compares
// periods 1, 2 (paper), 4 and "never" on the weighted cost and on simulated
// allgather latency across the recursive-doubling regime.  Its snapshot
// gates every cell of the table.

#include <cstdio>
#include <string>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "collectives/allgather.hpp"
#include "common/table.hpp"
#include "mapping/comparators.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/mapcost.hpp"
#include "simmpi/engine.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;

  BenchWorld world(kPaperNodes);
  SnapshotEmitter snapshot("abl_rdmh_refcore");
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
      "Ablation — RDMH reference-core update period, %d processes,\n"
      "block-bunch initial mapping, recursive-doubling allgather\n\n",
      p);

  TextTable t;
  t.set_header({"period", "weighted cost", "allgather 1KB (us)",
                "allgather 16KB (us)"});
  for (int period : {1, 2, 4, 0}) {
    Rng rng(1);
    mapping::RdmhMapper mapper(period);
    const auto result = mapper.map(initial, dist, rng);
    const auto reordered = comm.reordered(result);

    auto latency = [&](Bytes msg) {
      simmpi::Engine eng(reordered, simmpi::CostConfig{},
                         simmpi::ExecMode::Timed, msg, p);
      return collectives::run_allgather(
          eng,
          collectives::AllgatherOptions{
              collectives::AllgatherAlgo::RecursiveDoubling,
              collectives::OrderFix::None});
    };
    const std::string name = period == 0 ? "never" : std::to_string(period);
    const double cost = mapping::mapping_cost(pattern, result, dist);
    const Usec small = latency(1024);
    const Usec large = latency(16 * 1024);
    t.add_row({name, TextTable::num(cost, 0), TextTable::num(small, 1),
               TextTable::num(large, 1)});
    const std::string key = "period_" + name + ".";
    snapshot.add_metric(key + "weighted_cost", cost, "dist",
                        /*higher_is_better=*/false);
    snapshot.add_metric(key + "rd_1KiB", small, "usec",
                        /*higher_is_better=*/false);
    snapshot.add_metric(key + "rd_16KiB", large, "usec",
                        /*higher_is_better=*/false);
  }
  std::printf("%s", t.render().c_str());
  std::printf("(period 2 is Algorithm 2 as published)\n");
  snapshot.dump();
  return 0;
}
