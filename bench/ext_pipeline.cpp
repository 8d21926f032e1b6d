// Extension bench: phase-overlapped (pipelined) hierarchical allgather —
// the related-work direction of Ma et al. [19] — vs the sequential
// gather/exchange/broadcast phases, with and without rank reordering.
// Its snapshot gates every cell of the table.

#include <cstdio>
#include <string>
#include <utility>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "collectives/hierarchical.hpp"
#include "common/permutation.hpp"
#include "common/table.hpp"
#include "simmpi/engine.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;
  using namespace tarr::collectives;

  BenchWorld world(kPaperNodes);
  SnapshotEmitter snapshot("ext_pipeline");
  snapshot.set_meta("nodes", std::to_string(kPaperNodes));
  snapshot.set_meta("procs", std::to_string(kPaperProcs));
  const int p = kPaperProcs;
  const auto comm = world.comm(p, simmpi::LayoutSpec{});
  const auto rc = world.framework.reorder_hierarchical(
      comm, *mapping::make_heuristic(mapping::Pattern::Ring),
      mapping::make_heuristic(mapping::Pattern::BinomialBcast).get());

  std::printf(
      "Extension — pipelined hierarchical allgather (overlapping the\n"
      "leader ring with intra-node broadcasts), %d processes, block-bunch\n\n",
      p);

  auto sequential = [&](const simmpi::Communicator& c,
                        const std::vector<Rank>& oldrank, OrderFix fix,
                        Bytes msg) {
    simmpi::Engine eng(c, simmpi::CostConfig{}, simmpi::ExecMode::Timed, msg,
                       p);
    run_hier_allgather(
        eng, HierAllgatherOptions{AllgatherAlgo::Ring, IntraAlgo::Binomial,
                                  fix},
        oldrank);
    return eng.total();
  };
  auto pipelined = [&](const simmpi::Communicator& c,
                       const std::vector<Rank>& oldrank, OrderFix fix,
                       Bytes msg) {
    simmpi::Engine eng(c, simmpi::CostConfig{}, simmpi::ExecMode::Timed, msg,
                       p);
    run_hier_allgather_pipelined(eng, IntraAlgo::Binomial, fix, oldrank);
    return eng.total();
  };

  const auto id = identity_permutation(p);
  TextTable t;
  t.set_header({"msg", "sequential(us)", "pipelined(us)", "overlap gain %",
                "pipelined+Hrstc(us)"});
  const std::pair<Bytes, const char*> sizes[] = {{4 * 1024, "4KiB"},
                                                 {16 * 1024, "16KiB"},
                                                 {64 * 1024, "64KiB"},
                                                 {256 * 1024, "256KiB"}};
  for (const auto& [msg, size] : sizes) {
    const Usec seq = sequential(comm, id, OrderFix::None, msg);
    const Usec pipe = pipelined(comm, id, OrderFix::None, msg);
    const Usec pipe_h =
        pipelined(rc.comm, rc.oldrank, OrderFix::InitComm, msg);
    const double gain = improvement_percent(seq, pipe);
    t.add_row({TextTable::bytes(msg), TextTable::num(seq, 1),
               TextTable::num(pipe, 1), TextTable::num(gain, 1),
               TextTable::num(pipe_h, 1)});
    const std::string row = std::string("msg_") + size;
    snapshot.add_metric(row + ".sequential", seq, "usec",
                        /*higher_is_better=*/false);
    snapshot.add_metric(row + ".pipelined", pipe, "usec",
                        /*higher_is_better=*/false);
    snapshot.add_metric(row + ".overlap_gain", gain, "percent",
                        /*higher_is_better=*/true);
    snapshot.add_metric(row + ".pipelined_hrstc", pipe_h, "usec",
                        /*higher_is_better=*/false);
  }
  std::printf("%s", t.render().c_str());
  snapshot.dump();
  return 0;
}
