// Ablation: robustness to tie-breaking randomness.  Algorithm 1 step 5
// breaks distance ties randomly; the paper's results implicitly assume the
// outcome does not hinge on which tied core gets picked.  This bench runs
// RDMH and RMH under 16 different seeds and reports the spread of the
// resulting improvements.  Its snapshot gates each seed's improvement, RDMH
// at 1 KiB and RMH at 64 KiB (32 metrics).  It is the one bench that breaks
// ties under many seeds.

#include <cstdio>
#include <string>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/topoallgather.hpp"
#include "simmpi/layout.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;
  using collectives::OrderFix;
  using core::MapperKind;

  const topology::Machine machine = topology::Machine::gpc(512);
  const int p = 4096;
  const simmpi::LayoutSpec cyclic{simmpi::NodeOrder::Cyclic,
                                  simmpi::SocketOrder::Scatter};
  SnapshotEmitter snapshot("abl_seeds");
  snapshot.set_meta("nodes", std::to_string(machine.num_nodes()));
  snapshot.set_meta("procs", std::to_string(p));

  std::printf(
      "Ablation — sensitivity to the random tie-breaking seed,\n"
      "%d processes, cyclic-scatter initial mapping, 16 seeds\n\n",
      p);

  TextTable t;
  t.set_header({"regime", "msg", "impr % min", "mean", "max", "stddev"});
  for (Bytes msg : {Bytes(1024), Bytes(64 * 1024)}) {
    const bool rd = msg < 32 * 1024;
    std::string row = rd ? "rdmh_" : "rmh_";
    row += size_key(msg) + ".seed_";
    StatAccumulator acc;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      core::ReorderFramework framework(machine, seed);
      const simmpi::Communicator comm(
          machine, simmpi::make_layout(machine, p, cyclic));
      core::TopoAllgatherConfig def;
      def.mapper = MapperKind::None;
      core::TopoAllgather base(framework, comm, def);
      core::TopoAllgatherConfig heu;
      heu.mapper = MapperKind::Heuristic;
      heu.fix = OrderFix::InitComm;
      core::TopoAllgather h(framework, comm, heu);
      const double impr =
          improvement_percent(base.latency(msg), h.latency(msg));
      acc.add(impr);
      snapshot.add_metric(row + std::to_string(seed), impr, "percent",
                          /*higher_is_better=*/true);
    }
    t.add_row({rd ? "RDMH" : "RMH", TextTable::bytes(msg),
               TextTable::num(acc.min(), 2), TextTable::num(acc.mean(), 2),
               TextTable::num(acc.max(), 2),
               TextTable::num(acc.stddev(), 3)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nA small spread means the heuristics' quality comes from their\n"
      "selection/reference rules, not from lucky tie resolution.\n");
  snapshot.dump();
  return 0;
}
