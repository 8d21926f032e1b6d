// Ablation: which fine-tuned heuristic should reorder the intra-node level
// of a hierarchical allgather?  The paper's §VI-A2 discussion emphasizes
// BGMH (the gather phase); this library defaults to BBMH because the
// phase-3 broadcast moves p/cores_per_node times more bytes per intra-node
// edge.  This bench shows the tradeoff directly, and its snapshot gates both
// improvements at the smallest and the largest message.

#include <cstdio>
#include <string>
#include <utility>

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
  SnapshotEmitter snapshot("abl_hier_intra");
  snapshot.set_meta("nodes", std::to_string(kPaperNodes));
  snapshot.set_meta("procs", std::to_string(kPaperProcs));
  const std::pair<Bytes, const char*> gated[] = {{64, "64B"},
                                                 {256 * 1024, "256KiB"}};

  std::printf(
      "Ablation — hierarchical intra-node heuristic (BBMH vs BGMH),\n"
      "%d processes, non-linear intra phases, Hrstc+initComm\n\n",
      kPaperProcs);

  const simmpi::LayoutSpec layouts[] = {
      {simmpi::NodeOrder::Block, simmpi::SocketOrder::Bunch},
      {simmpi::NodeOrder::Block, simmpi::SocketOrder::Scatter},
  };
  for (const auto& spec : layouts) {
    core::TopoAllgatherConfig def;
    def.mapper = MapperKind::None;
    def.hierarchical = true;
    auto base = world.path(kPaperProcs, spec, def);

    auto variant = [&](mapping::Pattern intra_pattern) {
      core::TopoAllgatherConfig cfg = def;
      cfg.mapper = MapperKind::Heuristic;
      cfg.fix = OrderFix::InitComm;
      cfg.hier_intra_pattern = intra_pattern;
      return world.path(kPaperProcs, spec, cfg);
    };
    auto bbmh = variant(mapping::Pattern::BinomialBcast);
    auto bgmh = variant(mapping::Pattern::BinomialGather);

    TextTable t;
    t.set_header({"msg", "default(us)", "BBMH intra impr %",
                  "BGMH intra impr %"});
    const std::string layout = simmpi::to_string(spec);
    for (Bytes msg : osu_message_sizes(64)) {
      const double d = base.latency(msg);
      const double bb = improvement_percent(d, bbmh.latency(msg));
      const double bg = improvement_percent(d, bgmh.latency(msg));
      t.add_row({TextTable::bytes(msg), TextTable::num(d, 1),
                 TextTable::num(bb, 1), TextTable::num(bg, 1)});
      for (const auto& [at, tag] : gated) {
        if (msg != at) continue;
        snapshot.add_metric(layout + ".bbmh_improvement_" + tag, bb,
                            "percent", /*higher_is_better=*/true);
        snapshot.add_metric(layout + ".bgmh_improvement_" + tag, bg,
                            "percent", /*higher_is_better=*/true);
      }
    }
    std::printf("initial mapping: %s\n%s\n", layout.c_str(),
                t.render().c_str());
  }
  snapshot.dump();
  return 0;
}
