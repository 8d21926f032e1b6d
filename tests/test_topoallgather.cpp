#include "core/topoallgather.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/error.hpp"
#include "prof/profiler.hpp"
#include "simmpi/layout.hpp"

namespace tarr::core {
namespace {

using collectives::IntraAlgo;
using collectives::OrderFix;
using simmpi::Communicator;
using simmpi::LayoutSpec;
using simmpi::make_layout;
using topology::Machine;

struct World {
  Machine machine;
  ReorderFramework framework;
  explicit World(int nodes) : machine(Machine::gpc(nodes)),
                              framework(machine) {}

  Communicator comm(int p, LayoutSpec spec = LayoutSpec{}) {
    return Communicator(machine, make_layout(machine, p, spec));
  }
};

/// Parameter: (layout index, mapper, fix, hierarchical, intra).
using Param = std::tuple<int, MapperKind, OrderFix, bool, IntraAlgo>;

class TopoAllgatherMatrix : public ::testing::TestWithParam<Param> {};

TEST_P(TopoAllgatherMatrix, DataModeVerifiesEndToEnd) {
  const auto [layout_idx, mapper, fix, hier, intra] = GetParam();
  const LayoutSpec spec = simmpi::all_layouts()[layout_idx];
  if (hier && spec.node == simmpi::NodeOrder::Cyclic) GTEST_SKIP();
  World w(4);
  TopoAllgatherConfig cfg;
  cfg.mapper = mapper;
  cfg.fix = fix;
  cfg.hierarchical = hier;
  cfg.intra = intra;
  TopoAllgather ta(w.framework, w.comm(32, spec), cfg);
  // Exercise both selector regimes end to end with payload verification.
  EXPECT_GT(ta.run_and_check(512), 0.0);
  EXPECT_GT(ta.run_and_check(64 * 1024), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    FlatMappers, TopoAllgatherMatrix,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(MapperKind::None,
                                         MapperKind::Heuristic,
                                         MapperKind::ScotchLike,
                                         MapperKind::GreedyGraph,
                                         MapperKind::MvapichCyclic),
                       ::testing::Values(OrderFix::InitComm,
                                         OrderFix::EndShuffle),
                       ::testing::Values(false),
                       ::testing::Values(IntraAlgo::Binomial)));

INSTANTIATE_TEST_SUITE_P(
    Hierarchical, TopoAllgatherMatrix,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(MapperKind::None,
                                         MapperKind::Heuristic,
                                         MapperKind::ScotchLike),
                       ::testing::Values(OrderFix::InitComm,
                                         OrderFix::EndShuffle),
                       ::testing::Values(true),
                       ::testing::Values(IntraAlgo::Linear,
                                         IntraAlgo::Binomial)));

TEST(TopoAllgather, NoDegradationOnBlockBunchRing) {
  // Paper goal 2: on the ideal layout for the ring, the heuristic must not
  // be slower than the default.
  World w(8);
  TopoAllgatherConfig def;
  def.mapper = MapperKind::None;
  TopoAllgather d(w.framework, w.comm(64), def);
  TopoAllgatherConfig heu;
  heu.mapper = MapperKind::Heuristic;
  heu.fix = OrderFix::InitComm;
  TopoAllgather h(w.framework, w.comm(64), heu);
  const Bytes big = 256 * 1024;  // ring regime
  EXPECT_LE(h.latency(big), d.latency(big) * 1.0001);
}

TEST(TopoAllgather, HeuristicBeatsDefaultOnCyclicRing) {
  World w(8);
  const LayoutSpec cyclic{simmpi::NodeOrder::Cyclic,
                          simmpi::SocketOrder::Bunch};
  TopoAllgatherConfig def;
  def.mapper = MapperKind::None;
  TopoAllgather d(w.framework, w.comm(64, cyclic), def);
  TopoAllgatherConfig heu;
  heu.mapper = MapperKind::Heuristic;
  heu.fix = OrderFix::InitComm;
  TopoAllgather h(w.framework, w.comm(64, cyclic), heu);
  const Bytes big = 256 * 1024;
  EXPECT_LT(h.latency(big), d.latency(big));
}

TEST(TopoAllgather, ReorderHappensOncePerAlgorithm) {
  World w(4);
  TopoAllgatherConfig cfg;
  cfg.mapper = MapperKind::Heuristic;
  TopoAllgather ta(w.framework, w.comm(32), cfg);
  prof::Profiler profiler;
  prof::ScopedThreadProfiler guard(&profiler);
  auto reorders = [&] {
    const prof::Profile p = profiler.snapshot();
    const prof::ProfileEntry* e = p.find("reorder");
    return e == nullptr ? 0LL : e->calls;
  };
  ta.latency(1024);  // recursive doubling regime
  const double after_first = ta.mapping_seconds();
  EXPECT_EQ(reorders(), 1);
  ta.latency(2048);
  ta.latency(4096);
  EXPECT_EQ(reorders(), 1);
  EXPECT_EQ(ta.mapping_seconds(), after_first);  // cached reorder
  ta.latency(256 * 1024);  // ring regime -> one more reorder
  EXPECT_EQ(reorders(), 2);
}

TEST(TopoAllgather, ReorderedForSelectsByRegime) {
  World w(4);
  TopoAllgatherConfig cfg;
  cfg.mapper = MapperKind::Heuristic;
  TopoAllgather ta(w.framework, w.comm(32), cfg);
  const auto& small = ta.reordered_for(1024);
  const auto& large = ta.reordered_for(256 * 1024);
  // RDMH and RMH mappings differ on this layout.
  EXPECT_NE(small.comm.rank_to_core(), large.comm.rank_to_core());
}

TEST(TopoAllgather, BaselineUsesInternalCyclicReorderForRd) {
  // The MVAPICH-default baseline's RD path must behave like the cyclic
  // layout: on a block layout, default RD latency equals the latency the
  // same job would see under a cyclic initial layout.
  World w(8);
  TopoAllgatherConfig def;
  def.mapper = MapperKind::None;
  TopoAllgather block_default(w.framework, w.comm(64), def);
  TopoAllgather cyclic_default(
      w.framework,
      w.comm(64, LayoutSpec{simmpi::NodeOrder::Cyclic,
                            simmpi::SocketOrder::Bunch}),
      def);
  const Bytes small = 1024;  // RD regime
  EXPECT_NEAR(block_default.latency(small), cyclic_default.latency(small),
              0.02 * cyclic_default.latency(small));
}

TEST(TopoAllgather, MvapichCyclicHierarchicalRejected) {
  World w(2);
  TopoAllgatherConfig cfg;
  cfg.mapper = MapperKind::MvapichCyclic;
  cfg.hierarchical = true;
  EXPECT_THROW(TopoAllgather(w.framework, w.comm(16), cfg), Error);
}

TEST(TopoAllgather, ReorderedForRequiresMapper) {
  World w(2);
  TopoAllgatherConfig cfg;
  cfg.mapper = MapperKind::None;
  TopoAllgather ta(w.framework, w.comm(16), cfg);
  EXPECT_THROW(ta.reordered_for(1024), Error);
}

TEST(TopoAllgather, NonPow2FallsBackToBruck) {
  World w(3);
  TopoAllgatherConfig cfg;
  cfg.mapper = MapperKind::Heuristic;
  cfg.fix = OrderFix::InitComm;
  TopoAllgather ta(w.framework, w.comm(24), cfg);
  EXPECT_GT(ta.run_and_check(512), 0.0);      // Bruck regime
  EXPECT_GT(ta.run_and_check(64 * 1024), 0.0);  // ring regime
}

TEST(TopoAllgather, PipelinedHierarchicalVerifiesAndWins) {
  World w(8);
  TopoAllgatherConfig seq;
  seq.mapper = MapperKind::None;
  seq.hierarchical = true;
  TopoAllgather sequential(w.framework, w.comm(64), seq);

  TopoAllgatherConfig pipe = seq;
  pipe.pipelined = true;
  TopoAllgather pipelined(w.framework, w.comm(64), pipe);

  // Payload-verified in both regimes (RD regime falls back to sequential).
  EXPECT_GT(pipelined.run_and_check(512), 0.0);
  EXPECT_GT(pipelined.run_and_check(64 * 1024), 0.0);

  // In the ring regime the overlap must win; in the RD regime the two
  // configurations are identical.
  const Bytes large = 64 * 1024;
  EXPECT_LT(pipelined.latency(large), sequential.latency(large));
  const Bytes small = 512;
  EXPECT_DOUBLE_EQ(pipelined.latency(small), sequential.latency(small));
}

TEST(TopoAllgather, PipelinedWithReorderingVerifies) {
  World w(4);
  TopoAllgatherConfig cfg;
  cfg.mapper = MapperKind::Heuristic;
  cfg.fix = OrderFix::InitComm;
  cfg.hierarchical = true;
  cfg.pipelined = true;
  TopoAllgather ta(w.framework,
                   w.comm(32, LayoutSpec{simmpi::NodeOrder::Block,
                                         simmpi::SocketOrder::Scatter}),
                   cfg);
  EXPECT_GT(ta.run_and_check(64 * 1024), 0.0);
}

TEST(MapperKindNames, ToString) {
  EXPECT_STREQ(to_string(MapperKind::None), "default");
  EXPECT_STREQ(to_string(MapperKind::Heuristic), "Hrstc");
  EXPECT_STREQ(to_string(MapperKind::ScotchLike), "Scotch");
  EXPECT_STREQ(to_string(MapperKind::GreedyGraph), "Greedy");
  EXPECT_STREQ(to_string(MapperKind::MvapichCyclic), "MV-cyclic");
}

}  // namespace
}  // namespace tarr::core
