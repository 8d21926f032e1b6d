// Extension bench: congestion introspection.  The paper attributes its
// improvements to "avoiding message transmissions over slower channels" and
// reduced congestion; the simulator can show that directly by reporting the
// peak per-cable network load of every allgather stage before and after
// reordering (4096 processes, 64 KB ring regime, cyclic-bunch initial).
// Its snapshot gates both cells of both rows: the peak load, read from the
// recorded stage loads, and the ring's latency.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/fixtures.hpp"
#include "collectives/allgather.hpp"
#include "common/permutation.hpp"
#include "common/table.hpp"
#include "prof/obs.hpp"
#include "simmpi/engine.hpp"
#include "trace/tracer.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;

  BenchWorld world(kPaperNodes);
  SnapshotEmitter snapshot("ext_congestion");
  snapshot.set_meta("nodes", std::to_string(kPaperNodes));
  snapshot.set_meta("procs", std::to_string(kPaperProcs));
  const int p = kPaperProcs;
  const Bytes msg = 64 * 1024;
  const simmpi::LayoutSpec cyclic{simmpi::NodeOrder::Cyclic,
                                  simmpi::SocketOrder::Bunch};
  const auto comm = world.comm(p, cyclic);
  const auto rc = world.framework.reorder(comm, mapping::Pattern::Ring);

  std::printf(
      "Extension — peak per-cable link load of the ring allgather,\n"
      "%d processes, 64KB messages, cyclic-bunch initial mapping\n\n",
      p);

  // Peak over the recorded stages of a cable's load / its capacity.
  auto measure = [&](const simmpi::Communicator& c,
                     const std::vector<Rank>& oldrank) {
    trace::Tracer tracer;
    obs::Install traced(&tracer);
    simmpi::Engine eng(c, simmpi::CostConfig{}, simmpi::ExecMode::Timed, msg,
                       p);
    collectives::run_allgather(
        eng,
        collectives::AllgatherOptions{collectives::AllgatherAlgo::Ring,
                                      collectives::OrderFix::None},
        oldrank);
    double peak = 0.0;
    for (const trace::Load& l : tracer.record().loads)
      if (!l.qpi)
        peak = std::max(
            peak, l.bytes / world.machine.network().link(l.id).capacity);
    return std::pair<double, Usec>(peak, eng.total());
  };

  const auto [before_load, before_t] =
      measure(comm, identity_permutation(p));
  const auto [after_load, after_t] = measure(rc.comm, rc.oldrank);

  TextTable t;
  t.set_header({"mapping", "peak link load / stage", "latency(us)"});
  t.add_row({"cyclic (initial)",
             TextTable::bytes(static_cast<long long>(before_load)),
             TextTable::num(before_t, 1)});
  t.add_row({"RMH reordered",
             TextTable::bytes(static_cast<long long>(after_load)),
             TextTable::num(after_t, 1)});
  std::printf("%s", t.render().c_str());
  snapshot.add_metric("cyclic.peak_link_load", before_load, "bytes",
                      /*higher_is_better=*/false);
  snapshot.add_metric("cyclic.ring_64KiB", before_t, "usec",
                      /*higher_is_better=*/false);
  snapshot.add_metric("rmh.peak_link_load", after_load, "bytes",
                      /*higher_is_better=*/false);
  snapshot.add_metric("rmh.ring_64KiB", after_t, "usec",
                      /*higher_is_better=*/false);
  std::printf(
      "\nThe reorder cuts the hottest cable's per-stage load by %.1fx,\n"
      "which is where the latency improvement comes from.\n",
      before_load / after_load);
  snapshot.dump();
  return 0;
}
