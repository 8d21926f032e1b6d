// Extension bench (§VII future work): "evaluate the performance of our
// binomial broadcast and gather heuristics on systems having a more
// complicated intra-node topology with a larger number of cores per node."
//
// Machine: 128 nodes x 32 cores (2 sockets x 4 L3 complexes x 4 cores) =
// 4096 processes, with a faster shared-L3 channel inside each complex.
// Hierarchical allgather, non-linear intra phases, block-scatter initial.
// Its snapshot gates every cell of the table.  It is the one bench whose
// costs read each core's L3 complex and a non-default complex channel.

#include <cstdio>
#include <string>

#include "bench/fixtures.hpp"
#include "bench/sweep.hpp"
#include "common/table.hpp"
#include "core/topoallgather.hpp"
#include "simmpi/layout.hpp"
#include "topology/fattree.hpp"

int main() {
  using namespace tarr;
  using namespace tarr::bench;
  using collectives::OrderFix;
  using core::MapperKind;

  const topology::NodeShape deep{2, 16, 4};  // 32 cores, 4 complexes/socket
  const topology::Machine machine(
      deep, topology::build_gpc_network(128));
  core::ReorderFramework framework(machine);
  const int p = machine.total_cores();  // 4096
  SnapshotEmitter snapshot("ext_bigsmp");
  snapshot.set_meta("nodes", std::to_string(machine.num_nodes()));
  snapshot.set_meta("procs", std::to_string(p));

  simmpi::CostConfig cost;
  cost.alpha_shm_complex = 0.25;
  cost.beta_shm_complex_pair = 1.0 / 9000.0;  // shared-L3 fast path

  const simmpi::LayoutSpec scatter{simmpi::NodeOrder::Block,
                                   simmpi::SocketOrder::Scatter};
  const simmpi::Communicator comm(
      machine, simmpi::make_layout(machine, p, scatter));

  std::printf(
      "Extension — binomial heuristics on 32-core nodes (2 sockets x 4 L3\n"
      "complexes x 4 cores), %d processes, hierarchical NL allgather,\n"
      "block-scatter initial mapping\n\n",
      p);

  core::TopoAllgatherConfig def;
  def.mapper = MapperKind::None;
  def.hierarchical = true;
  def.cost = cost;
  core::TopoAllgather base(framework, comm, def);

  auto variant = [&](mapping::Pattern intra) {
    core::TopoAllgatherConfig cfg = def;
    cfg.mapper = MapperKind::Heuristic;
    cfg.fix = OrderFix::InitComm;
    cfg.hier_intra_pattern = intra;
    return core::TopoAllgather(framework, comm, cfg);
  };
  auto bbmh = variant(mapping::Pattern::BinomialBcast);
  auto bgmh = variant(mapping::Pattern::BinomialGather);

  TextTable t;
  t.set_header({"msg", "default(us)", "BBMH intra impr %",
                "BGMH intra impr %"});
  for (Bytes msg : osu_message_sizes(64)) {
    const double d = base.latency(msg);
    const double bb = improvement_percent(d, bbmh.latency(msg));
    const double bg = improvement_percent(d, bgmh.latency(msg));
    t.add_row({TextTable::bytes(msg), TextTable::num(d, 1),
               TextTable::num(bb, 1), TextTable::num(bg, 1)});
    const std::string row = "msg_" + size_key(msg) + ".";
    snapshot.add_metric(row + "default", d, "usec",
                        /*higher_is_better=*/false);
    snapshot.add_metric(row + "bbmh_improvement", bb, "percent",
                        /*higher_is_better=*/true);
    snapshot.add_metric(row + "bgmh_improvement", bg, "percent",
                        /*higher_is_better=*/true);
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nWith four complexes per socket there is more locality for the\n"
      "intra-node heuristics to exploit than on the paper's 8-core nodes\n"
      "(the paper's own conjecture in SVII).\n");
  snapshot.dump();
  return 0;
}
