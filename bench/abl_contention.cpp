// Ablation: does the paper's story require the contention model?  Fig 3's
// large improvements come from congestion on shared links (5:1 leaf
// blocking, host links, QPI).  With contention modeling disabled (pure
// alpha/hops/beta per transfer) the same reorderings yield much smaller
// gains — showing which part of the result each model component carries.

#include <cstdio>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "common/table.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;
  using collectives::OrderFix;
  using core::MapperKind;

  BenchWorld world(kPaperNodes);
  const simmpi::LayoutSpec cyclic{simmpi::NodeOrder::Cyclic,
                                  simmpi::SocketOrder::Bunch};
  SnapshotEmitter snapshot("abl_contention");
  snapshot.set_meta("nodes", std::to_string(kPaperNodes));
  snapshot.set_meta("procs", std::to_string(kPaperProcs));

  std::printf(
      "Ablation — contention model on/off, %d processes,\n"
      "cyclic-bunch initial mapping, Hrstc+initComm vs default\n\n",
      kPaperProcs);

  TextTable t;
  t.set_header({"msg", "impr %% (contention)", "impr %% (no contention)"});
  const auto sizes = osu_message_sizes(64, 256 * 1024);

  auto improvements = [&](bool contention) {
    simmpi::CostConfig cost;
    cost.model_contention = contention;
    core::TopoAllgatherConfig def;
    def.mapper = MapperKind::None;
    def.cost = cost;
    auto base = world.path(kPaperProcs, cyclic, def);
    core::TopoAllgatherConfig heu = def;
    heu.mapper = MapperKind::Heuristic;
    heu.fix = OrderFix::InitComm;
    auto h = world.path(kPaperProcs, cyclic, heu);
    std::vector<double> out;
    for (Bytes msg : sizes) {
      out.push_back(improvement_percent(base.latency(msg), h.latency(msg)));
    }
    return out;
  };

  const auto with_c = improvements(true);
  const auto without_c = improvements(false);
  double sum_with = 0.0, sum_without = 0.0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sum_with += with_c[i];
    sum_without += without_c[i];
    t.add_row({TextTable::bytes(sizes[i]), TextTable::num(with_c[i], 1),
               TextTable::num(without_c[i], 1)});
  }
  std::printf("%s", t.render().c_str());
  const auto n = static_cast<double>(sizes.size());
  snapshot.add_metric("mean_improvement_contention", sum_with / n, "percent",
                      /*higher_is_better=*/true);
  snapshot.add_metric("mean_improvement_no_contention", sum_without / n,
                      "percent", /*higher_is_better=*/true);
  snapshot.dump();
  return 0;
}
