// Extension bench: general topology-aware mapping for point-to-point
// application patterns (§V's "general forms"), measured as the simulated
// time of one halo-exchange round before and after reordering.  A 64x64
// process grid (4096 processes) on the paper's machine, placed block and
// cyclic.  Every cell is gated: per layout and message size the initial
// time, <layout>.initial_<size>, and both mappers' improvements,
// <layout>.bisection_improvement_<size> and <layout>.greedy_improvement_<size>.

#include <cstdio>
#include <string>
#include <utility>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "common/table.hpp"
#include "graph/apppattern.hpp"
#include "simmpi/engine.hpp"

namespace {

using namespace tarr;

/// One halo-exchange round: every edge of the pattern carries msg bytes in
/// both directions, all concurrently (one stage).
Usec halo_round(const simmpi::Communicator& comm,
                const graph::WeightedGraph& pattern, Bytes msg) {
  simmpi::Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed,
                     msg, 2);
  eng.begin_stage();
  for (const auto& e : pattern.edges()) {
    eng.copy(e.u, 0, e.v, 1, 1);
    eng.copy(e.v, 0, e.u, 1, 1);
  }
  eng.end_stage();
  return eng.total();
}

}  // namespace

int main() {
  using namespace tarr::bench;

  BenchWorld world(kPaperNodes);
  SnapshotEmitter snapshot("ext_apppattern");
  snapshot.set_meta("nodes", std::to_string(kPaperNodes));
  snapshot.set_meta("procs", std::to_string(kPaperProcs));
  const int p = kPaperProcs;
  const auto pattern = graph::stencil2d_pattern(64, 64);

  std::printf(
      "Extension — general graph mapping for a 64x64 2D halo exchange,\n"
      "%d processes; time of one exchange round (all edges concurrent)\n\n",
      p);

  TextTable t;
  t.set_header({"layout", "msg", "initial(us)", "bisection impr %",
                "greedy impr %"});
  const std::pair<Bytes, const char*> sizes[] = {{4 * 1024, "4KiB"},
                                                 {64 * 1024, "64KiB"}};
  for (const auto& spec : simmpi::all_layouts()) {
    const std::string layout = simmpi::to_string(spec);
    const auto comm = world.comm(p, spec);
    const auto bis = world.framework.reorder_for_graph(
        comm, pattern, core::ReorderFramework::GraphMapperKind::Bisection);
    const auto greedy = world.framework.reorder_for_graph(
        comm, pattern, core::ReorderFramework::GraphMapperKind::Greedy);
    for (const auto& [msg, size] : sizes) {
      const Usec before = halo_round(comm, pattern, msg);
      const double bis_impr =
          improvement_percent(before, halo_round(bis.comm, pattern, msg));
      const double greedy_impr =
          improvement_percent(before, halo_round(greedy.comm, pattern, msg));
      t.add_row({layout, TextTable::bytes(msg), TextTable::num(before, 1),
                 TextTable::num(bis_impr, 1), TextTable::num(greedy_impr, 1)});
      snapshot.add_metric(layout + ".initial_" + size, before, "usec",
                          /*higher_is_better=*/false);
      snapshot.add_metric(layout + ".bisection_improvement_" + size, bis_impr,
                          "percent", /*higher_is_better=*/true);
      snapshot.add_metric(layout + ".greedy_improvement_" + size, greedy_impr,
                          "percent", /*higher_is_better=*/true);
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nRecursive bipartitioning finds 2D tiles for the uniform stencil;\n"
      "the greedy heaviest-edge mapper packs rows, which only helps when\n"
      "the initial placement is worse than rows (cyclic layouts).\n");
  snapshot.dump();
  return 0;
}
