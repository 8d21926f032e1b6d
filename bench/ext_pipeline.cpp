// Extension bench: phase-overlapped (pipelined) hierarchical allgather —
// the related-work direction of Ma et al. [19] — vs the sequential
// gather/exchange/broadcast phases, with and without rank reordering.

#include <cstdio>

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
  for (Bytes msg : {Bytes(4 * 1024), Bytes(16 * 1024), Bytes(64 * 1024),
                    Bytes(256 * 1024)}) {
    const Usec seq = sequential(comm, id, OrderFix::None, msg);
    const Usec pipe = pipelined(comm, id, OrderFix::None, msg);
    const Usec pipe_h =
        pipelined(rc.comm, rc.oldrank, OrderFix::InitComm, msg);
    t.add_row({TextTable::bytes(msg), TextTable::num(seq, 1),
               TextTable::num(pipe, 1),
               TextTable::num(improvement_percent(seq, pipe), 1),
               TextTable::num(pipe_h, 1)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
