// Extension bench (§VII future work): Bruck allgather with the BKMH
// heuristic on non-power-of-two communicators, and RDMH-reordered
// MPI_Allreduce (recursive doubling and Rabenseifner).  Its snapshot gates
// every cell of both tables.  The Bruck run is the one paper-scale Timed
// path that prices local copies: its final rotation issues one per rank.

#include <cstdio>
#include <string>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "collectives/allgather.hpp"
#include "collectives/allreduce.hpp"
#include "common/table.hpp"
#include "common/permutation.hpp"
#include "simmpi/engine.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;

  SnapshotEmitter snapshot("ext_bruck_allreduce");
  snapshot.set_meta("bruck_procs", "3000");
  snapshot.set_meta("allreduce_procs", std::to_string(kPaperProcs));

  // --- Bruck + BKMH at a non-power-of-two size --------------------------
  {
    BenchWorld world(375);  // 3000 ranks: Bruck territory
    const int p = 3000;
    const simmpi::LayoutSpec cyclic{simmpi::NodeOrder::Cyclic,
                                    simmpi::SocketOrder::Bunch};
    const auto comm = world.comm(p, cyclic);
    const auto rc = world.framework.reorder(comm, mapping::Pattern::Bruck);

    std::printf(
        "Extension — Bruck allgather + BKMH, %d processes (non-2^k),\n"
        "cyclic-bunch initial mapping\n\n",
        p);
    TextTable t;
    t.set_header({"msg", "default(us)", "BKMH(us)", "impr %"});
    for (Bytes msg : osu_message_sizes(64, 16 * 1024)) {
      simmpi::Engine base(comm, simmpi::CostConfig{},
                          simmpi::ExecMode::Timed, msg, p);
      const Usec d = collectives::run_allgather(
          base, collectives::AllgatherOptions{collectives::AllgatherAlgo::Bruck,
                                              collectives::OrderFix::None});
      simmpi::Engine reord(rc.comm, simmpi::CostConfig{},
                           simmpi::ExecMode::Timed, msg, p);
      const Usec h = collectives::run_allgather(
          reord,
          collectives::AllgatherOptions{collectives::AllgatherAlgo::Bruck,
                                        collectives::OrderFix::None},
          rc.oldrank);
      const double gain = improvement_percent(d, h);
      t.add_row({TextTable::bytes(msg), TextTable::num(d, 1),
                 TextTable::num(h, 1), TextTable::num(gain, 1)});
      const std::string key = "bruck_" + size_key(msg) + ".";
      snapshot.add_metric(key + "default", d, "usec",
                          /*higher_is_better=*/false);
      snapshot.add_metric(key + "bkmh", h, "usec",
                          /*higher_is_better=*/false);
      snapshot.add_metric(key + "improvement", gain, "percent",
                          /*higher_is_better=*/true);
    }
    std::printf("%s\n", t.render().c_str());
  }

  // --- Allreduce + RDMH ---------------------------------------------------
  {
    BenchWorld world(kPaperNodes);
    const int p = kPaperProcs;
    // Block-bunch: the placement batch schedulers produce by default, and a
    // poor match for recursive doubling (no MVAPICH-internal reorder exists
    // for the raw allreduce path).
    const auto comm = world.comm(p, simmpi::LayoutSpec{});
    const auto rc =
        world.framework.reorder(comm, mapping::Pattern::RecursiveDoubling);

    std::printf(
        "Extension — MPI_Allreduce + RDMH, %d processes, block-bunch\n\n",
        p);
    TextTable t;
    t.set_header({"msg", "RD default(us)", "RD+RDMH(us)", "impr %",
                  "Rabenseifner+RDMH(us)"});
    for (Bytes msg : {Bytes(1024), Bytes(16 * 1024), Bytes(256 * 1024),
                      Bytes(1 << 20)}) {
      simmpi::Engine base(comm, simmpi::CostConfig{},
                          simmpi::ExecMode::Timed, msg, 1);
      const Usec d = collectives::run_allreduce_rd(base);
      simmpi::Engine reord(rc.comm, simmpi::CostConfig{},
                           simmpi::ExecMode::Timed, msg, 1);
      const Usec h = collectives::run_allreduce_rd(reord);
      simmpi::Engine rab(rc.comm, simmpi::CostConfig{},
                         simmpi::ExecMode::Timed, msg / p + 1, p);
      const Usec r = collectives::run_allreduce_rabenseifner(rab);
      const double gain = improvement_percent(d, h);
      t.add_row({TextTable::bytes(msg), TextTable::num(d, 1),
                 TextTable::num(h, 1), TextTable::num(gain, 1),
                 TextTable::num(r, 1)});
      const std::string key = "allreduce_" + size_key(msg) + ".";
      snapshot.add_metric(key + "rd_default", d, "usec",
                          /*higher_is_better=*/false);
      snapshot.add_metric(key + "rd_rdmh", h, "usec",
                          /*higher_is_better=*/false);
      snapshot.add_metric(key + "improvement", gain, "percent",
                          /*higher_is_better=*/true);
      snapshot.add_metric(key + "rabenseifner_rdmh", r, "usec",
                          /*higher_is_better=*/false);
    }
    std::printf("%s", t.render().c_str());
    std::printf(
        "Note: full-vector RD allreduce exchanges the same volume in every\n"
        "stage and is bound by each node's host link, so any mapping with\n"
        "log2(cores/node) intra-node stages is equivalent — reordering\n"
        "cannot help much.  The bandwidth-optimal Rabenseifner algorithm\n"
        "(reduce-scatter + allgather) is the real large-message win.\n");
  }
  snapshot.dump();
  return 0;
}
