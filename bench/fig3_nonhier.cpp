// Fig 3 regeneration: micro-benchmark performance improvements of
// non-hierarchical topology-aware allgather over the MVAPICH-like default,
// with 4096 processes and four initial mappings (block-bunch, block-scatter,
// cyclic-bunch, cyclic-scatter).
//
// Series, as in the paper: Hrstc/Scotch x {initComm, endShfl}; values are
// percentage latency improvement over the default library (positive =
// faster).  The default's recursive-doubling path includes MVAPICH's own
// internal block->cyclic reorder, as described in §V-A1.
//
// Under each table, the §V-B order fixes compared on the Hrstc path:
// endShfl's peak penalty over initComm, its penalty once the ring (which
// needs no fix) takes over at 32 KB, and the sizes where endShfl is ahead.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "collectives/selector.hpp"
#include "common/table.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;
  using core::MapperKind;
  using collectives::OrderFix;

  BenchWorld world(kPaperNodes);
  const auto sizes = osu_message_sizes(1, 256 * 1024);
  SnapshotEmitter snapshot("fig3_nonhier");
  snapshot.set_meta("nodes", std::to_string(kPaperNodes));
  snapshot.set_meta("procs", std::to_string(kPaperProcs));

  std::printf(
      "Fig 3 — non-hierarchical topology-aware allgather, %d processes\n"
      "%% latency improvement over the MVAPICH-like default\n\n",
      kPaperProcs);

  const char sub = 'a';
  int fig = 0;
  for (const auto& spec : simmpi::all_layouts()) {
    core::TopoAllgatherConfig def;
    def.mapper = MapperKind::None;
    auto base = world.path(kPaperProcs, spec, def);

    struct Series {
      const char* name;
      core::TopoAllgather path;
    };
    auto variant = [&](const char* name, MapperKind kind, OrderFix fix) {
      core::TopoAllgatherConfig cfg;
      cfg.mapper = kind;
      cfg.fix = fix;
      return Series{name, world.path(kPaperProcs, spec, cfg)};
    };
    Series series[] = {
        variant("Hrstc+initComm", MapperKind::Heuristic, OrderFix::InitComm),
        variant("Hrstc+endShfl", MapperKind::Heuristic, OrderFix::EndShuffle),
        variant("Scotch+initComm", MapperKind::ScotchLike, OrderFix::InitComm),
        variant("Scotch+endShfl", MapperKind::ScotchLike, OrderFix::EndShuffle),
    };

    TextTable t;
    t.set_header({"msg", "default(us)", series[0].name, series[1].name,
                  series[2].name, series[3].name});
    double hrstc_impr_sum = 0.0;
    double max_msg_default = 0.0;
    double peak_penalty = -HUGE_VAL;
    double ring_penalty = 0.0;
    int endshfl_wins = 0;
    for (Bytes msg : sizes) {
      const double d = base.latency(msg);
      max_msg_default = d;
      std::vector<std::string> row{TextTable::bytes(msg),
                                   TextTable::num(d, 1)};
      std::vector<double> lat;
      for (auto& s : series) {
        lat.push_back(s.path.latency(msg));
        row.push_back(TextTable::num(improvement_percent(d, lat.back()), 1));
      }
      hrstc_impr_sum += improvement_percent(d, lat[0]);
      const double penalty = 100.0 * (lat[1] - lat[0]) / lat[0];
      peak_penalty = std::max(peak_penalty, penalty);
      if (msg >= collectives::kRdMaxMsg)
        ring_penalty = std::max(ring_penalty, std::fabs(penalty));
      if (lat[1] < lat[0]) ++endshfl_wins;
      t.add_row(std::move(row));
    }
    const std::string layout = simmpi::to_string(spec);
    snapshot.add_metric(layout + ".hrstc_initcomm_mean_improvement",
                        hrstc_impr_sum / static_cast<double>(sizes.size()),
                        "percent", /*higher_is_better=*/true);
    snapshot.add_metric(layout + ".default_latency_maxmsg", max_msg_default,
                        "us", /*higher_is_better=*/false);
    snapshot.add_metric(layout + ".endshfl_peak_penalty", peak_penalty,
                        "percent", /*higher_is_better=*/false);
    snapshot.add_metric(layout + ".endshfl_ring_penalty", ring_penalty,
                        "percent", /*higher_is_better=*/false);
    snapshot.add_metric(layout + ".endshfl_wins", endshfl_wins, "count",
                        /*higher_is_better=*/false);
    std::printf("Fig 3(%c) — initial mapping: %s\n%s",
                static_cast<char>(sub + fig++),
                simmpi::to_string(spec).c_str(), t.render().c_str());
    std::printf(
        "Hrstc endShfl vs initComm: peak penalty %s %%, ring-regime "
        "penalty %s %%, endShfl ahead at %d of %zu sizes\n\n",
        TextTable::num(peak_penalty, 1).c_str(),
        TextTable::num(ring_penalty, 1).c_str(), endshfl_wins, sizes.size());
  }
  snapshot.dump();
  return 0;
}
