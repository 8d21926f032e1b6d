// Fig 6 regeneration: application execution time, normalized to the default
// *hierarchical* configuration, at 1024 processes, for block-bunch and
// block-scatter initial mappings with non-linear and linear intra-node
// phases.

#include <cstdio>

#include "bench/appmodel.hpp"
#include "bench/fixtures.hpp"
#include "common/table.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;
  using collectives::IntraAlgo;
  using collectives::OrderFix;
  using core::MapperKind;

  BenchWorld world(kAppNodes);
  const auto trace = default_app_trace();
  SnapshotEmitter snapshot("fig6_app_hier");
  snapshot.set_meta("nodes", std::to_string(kAppNodes));
  snapshot.set_meta("procs", std::to_string(kAppProcs));
  snapshot.set_meta("allgather_calls", std::to_string(trace_calls(trace)));

  std::printf(
      "Fig 6 — application execution time (normalized to default),\n"
      "hierarchical allgather, %d processes, %d Allgather calls\n\n",
      kAppProcs, trace_calls(trace));

  const simmpi::LayoutSpec layouts[] = {
      {simmpi::NodeOrder::Block, simmpi::SocketOrder::Bunch},
      {simmpi::NodeOrder::Block, simmpi::SocketOrder::Scatter},
  };

  int fig = 0;
  for (IntraAlgo intra : {IntraAlgo::Binomial, IntraAlgo::Linear}) {
    for (const auto& spec : layouts) {
      const char* suffix = intra == IntraAlgo::Binomial ? "NL" : "L";

      core::TopoAllgatherConfig def;
      def.mapper = MapperKind::None;
      def.hierarchical = true;
      def.intra = intra;
      auto base = world.path(kAppProcs, spec, def);
      const Usec coll_default = app_collective_time(base, trace);
      const Usec compute = coll_default;
      const Usec total_default = compute + coll_default;
      const std::string layout =
          simmpi::to_string(spec) + "." + std::string(suffix);
      snapshot.add_metric(layout + ".default_collective_us", coll_default,
                          "us", /*higher_is_better=*/false);

      TextTable t;
      t.set_header({"variant", "collective(s)", "overhead(s)", "normalized"});
      t.add_row({"default", TextTable::num(coll_default * 1e-6, 3), "0.000",
                 "1.00"});
      for (MapperKind kind :
           {MapperKind::Heuristic, MapperKind::ScotchLike}) {
        core::TopoAllgatherConfig cfg = def;
        cfg.mapper = kind;
        cfg.fix = OrderFix::InitComm;
        auto path = world.path(kAppProcs, spec, cfg);
        const Usec coll = app_collective_time(path, trace);
        const Usec overhead = path.mapping_seconds() * 1e6;
        // Same gating split as fig5: simulated metrics gate, the end-to-end
        // normalized value (wall-clock overhead inside) only trends.
        const std::string prefix =
            layout + "." + std::string(core::to_string(kind));
        snapshot.add_metric(prefix + "_collective_us", coll, "us",
                            /*higher_is_better=*/false);
        snapshot.add_metric(prefix + "_normalized_sim",
                            (compute + coll) / total_default, "ratio",
                            /*higher_is_better=*/false);
        snapshot.add_metric(prefix + "_normalized",
                            (compute + coll + overhead) / total_default,
                            "ratio",
                            /*higher_is_better=*/false, /*gate=*/false);
        t.add_row({std::string(core::to_string(kind)) + "-" + suffix,
                   TextTable::num(coll * 1e-6, 3),
                   TextTable::num(overhead * 1e-6, 3),
                   TextTable::num((compute + coll + overhead) / total_default,
                                  2)});
      }
      std::printf("Fig 6(%c) — %s, %s intra-node phases\n%s\n",
                  static_cast<char>('a' + fig++),
                  simmpi::to_string(spec).c_str(),
                  intra == IntraAlgo::Binomial ? "non-linear" : "linear",
                  t.render().c_str());
    }
  }
  snapshot.dump();
  return 0;
}
