// Fig 4 regeneration: micro-benchmark performance improvements of
// hierarchical topology-aware allgather with 4096 processes, two initial
// mappings (block-bunch, block-scatter — the paper notes hierarchical
// allgather is not supported under cyclic layouts) and two intra-node phase
// styles (non-linear = binomial, linear).

#include <cstdio>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "common/table.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;
  using collectives::IntraAlgo;
  using collectives::OrderFix;
  using core::MapperKind;

  BenchWorld world(kPaperNodes);
  const auto sizes = osu_message_sizes(1, 256 * 1024);
  SnapshotEmitter snapshot("fig4_hier");
  snapshot.set_meta("nodes", std::to_string(kPaperNodes));
  snapshot.set_meta("procs", std::to_string(kPaperProcs));

  std::printf(
      "Fig 4 — hierarchical topology-aware allgather, %d processes\n"
      "%% latency improvement over the default hierarchical algorithm\n\n",
      kPaperProcs);

  const simmpi::LayoutSpec layouts[] = {
      {simmpi::NodeOrder::Block, simmpi::SocketOrder::Bunch},
      {simmpi::NodeOrder::Block, simmpi::SocketOrder::Scatter},
  };
  const IntraAlgo intras[] = {IntraAlgo::Binomial, IntraAlgo::Linear};

  int fig = 0;
  for (IntraAlgo intra : intras) {
    for (const auto& spec : layouts) {
      const char* suffix = intra == IntraAlgo::Binomial ? "NL" : "L";

      core::TopoAllgatherConfig def;
      def.mapper = MapperKind::None;
      def.hierarchical = true;
      def.intra = intra;
      auto base = world.path(kPaperProcs, spec, def);

      auto variant = [&](MapperKind kind, OrderFix fix) {
        core::TopoAllgatherConfig cfg = def;
        cfg.mapper = kind;
        cfg.fix = fix;
        return world.path(kPaperProcs, spec, cfg);
      };
      auto h_ic = variant(MapperKind::Heuristic, OrderFix::InitComm);
      auto h_es = variant(MapperKind::Heuristic, OrderFix::EndShuffle);
      auto s_ic = variant(MapperKind::ScotchLike, OrderFix::InitComm);
      auto s_es = variant(MapperKind::ScotchLike, OrderFix::EndShuffle);

      TextTable t;
      t.set_header({"msg", "default(us)",
                    std::string("Hrstc-") + suffix + "+initComm",
                    std::string("Hrstc-") + suffix + "+endShfl",
                    std::string("Scotch-") + suffix + "+initComm",
                    std::string("Scotch-") + suffix + "+endShfl"});
      double hrstc_impr_sum = 0.0;
      double max_msg_default = 0.0;
      for (Bytes msg : sizes) {
        const double d = base.latency(msg);
        max_msg_default = d;
        hrstc_impr_sum += improvement_percent(d, h_ic.latency(msg));
        t.add_row({TextTable::bytes(msg), TextTable::num(d, 1),
                   TextTable::num(improvement_percent(d, h_ic.latency(msg)), 1),
                   TextTable::num(improvement_percent(d, h_es.latency(msg)), 1),
                   TextTable::num(improvement_percent(d, s_ic.latency(msg)), 1),
                   TextTable::num(improvement_percent(d, s_es.latency(msg)),
                                  1)});
      }
      const std::string tag =
          simmpi::to_string(spec) + "." + (intra == IntraAlgo::Binomial
                                               ? "nonlinear"
                                               : "linear");
      snapshot.add_metric(tag + ".hrstc_initcomm_mean_improvement",
                          hrstc_impr_sum / static_cast<double>(sizes.size()),
                          "percent", /*higher_is_better=*/true);
      snapshot.add_metric(tag + ".default_latency_maxmsg", max_msg_default,
                          "us", /*higher_is_better=*/false);
      std::printf("Fig 4(%c) — %s, %s intra-node phases\n%s\n",
                  static_cast<char>('a' + fig++),
                  simmpi::to_string(spec).c_str(),
                  intra == IntraAlgo::Binomial ? "non-linear" : "linear",
                  t.render().c_str());
    }
  }
  snapshot.dump();
  return 0;
}
