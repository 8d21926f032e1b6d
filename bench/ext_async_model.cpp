// Extension bench: stage-synchronous vs asynchronous (LogGP-flavored)
// execution models.  The stage model is exact for synchronized patterns
// and carries the contention story; the async model exposes the pipelining
// that stage synchronization rounds up.  Comparing both quantifies the
// stage-model approximation per algorithm: each stage-synchronous run is
// traced and its record replayed on per-rank clocks.  Its snapshot gates
// every cell of the four rows.

#include <cstdio>
#include <string>
#include <utility>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "collectives/allgather.hpp"
#include "common/table.hpp"
#include "prof/obs.hpp"
#include "simmpi/async.hpp"
#include "simmpi/engine.hpp"
#include "trace/tracer.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;

  BenchWorld world(64);
  SnapshotEmitter snapshot("ext_async_model");
  snapshot.set_meta("nodes", "64");
  snapshot.set_meta("procs", "512");
  const int p = 512;
  const auto comm = world.comm(p, simmpi::LayoutSpec{});

  std::printf(
      "Extension — execution-model comparison, %d processes, block-bunch\n"
      "(stage-synchronous without contention vs asynchronous per-rank\n"
      "clocks; both without link sharing, isolating the synchronization\n"
      "assumption)\n\n",
      p);

  simmpi::CostConfig no_contention;
  no_contention.model_contention = false;

  TextTable t;
  t.set_header({"algorithm", "msg", "stage-sync(us)", "async(us)",
                "pipelining headroom %"});
  const std::pair<Bytes, const char*> sizes[] = {{4 * 1024, "4KiB"},
                                                 {64 * 1024, "64KiB"}};
  struct Algo {
    collectives::AllgatherAlgo algo;
    const char* name;  ///< table row
    const char* key;   ///< metric prefix
  };
  const Algo algos[] = {
      {collectives::AllgatherAlgo::Ring, "ring", "ring_"},
      {collectives::AllgatherAlgo::RecursiveDoubling, "recursive-doubling",
       "rd_"}};
  for (const auto& [msg, size] : sizes) {
    for (const auto& [algo, name, key] : algos) {
      trace::Tracer tracer;
      Usec staged = 0.0;
      {
        obs::Install traced(&tracer);
        simmpi::Engine stage(comm, no_contention, simmpi::ExecMode::Timed,
                             msg, p);
        collectives::run_allgather(
            stage,
            collectives::AllgatherOptions{algo, collectives::OrderFix::None});
        staged = stage.total();
      }
      const Usec a =
          simmpi::async_makespan(tracer.record(), p, no_contention);
      const double headroom = improvement_percent(staged, a);
      t.add_row({name, TextTable::bytes(msg), TextTable::num(staged, 1),
                 TextTable::num(a, 1), TextTable::num(headroom, 1)});
      const std::string row = std::string(key) + size;
      snapshot.add_metric(row + ".stage_sync", staged, "usec",
                          /*higher_is_better=*/false);
      snapshot.add_metric(row + ".async", a, "usec",
                          /*higher_is_better=*/false);
      snapshot.add_metric(row + ".headroom", headroom, "percent",
                          /*higher_is_better=*/true);
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nThe ring leaves pipelining headroom the stage model rounds up;\n"
      "recursive doubling is globally synchronized, so the two models\n"
      "agree there within 0.1%%.\n");
  snapshot.dump();
  return 0;
}
