// Shape-regression tests: the qualitative results of the paper's figures,
// pinned at a reduced scale (64 nodes, 512 processes) so the full suite
// stays fast.  If a model or heuristic change breaks one of these, the
// corresponding figure reproduction has regressed.

#include <gtest/gtest.h>

#include "bench/sweep.hpp"
#include "core/topoallgather.hpp"
#include "prof/profiler.hpp"
#include "simmpi/layout.hpp"

namespace tarr {
namespace {

using bench::improvement_percent;
using collectives::IntraAlgo;
using collectives::OrderFix;
using core::MapperKind;
using core::ReorderFramework;
using core::TopoAllgather;
using core::TopoAllgatherConfig;
using simmpi::LayoutSpec;
using simmpi::NodeOrder;
using simmpi::SocketOrder;
using topology::Machine;

class Shapes : public ::testing::Test {
 protected:
  Shapes() : machine_(Machine::gpc(64)), framework_(machine_) {}

  TopoAllgather path(const LayoutSpec& spec, MapperKind kind,
                     OrderFix fix = OrderFix::InitComm,
                     bool hier = false,
                     IntraAlgo intra = IntraAlgo::Binomial) {
    TopoAllgatherConfig cfg;
    cfg.mapper = kind;
    cfg.fix = fix;
    cfg.hierarchical = hier;
    cfg.intra = intra;
    return TopoAllgather(
        framework_,
        simmpi::Communicator(machine_,
                             simmpi::make_layout(machine_, 512, spec)),
        cfg);
  }

  double improvement(TopoAllgather& base, TopoAllgather& variant,
                     Bytes msg) {
    return improvement_percent(base.latency(msg), variant.latency(msg));
  }

  static constexpr LayoutSpec kBlockBunch{NodeOrder::Block,
                                          SocketOrder::Bunch};
  static constexpr LayoutSpec kBlockScatter{NodeOrder::Block,
                                            SocketOrder::Scatter};
  static constexpr LayoutSpec kCyclicBunch{NodeOrder::Cyclic,
                                           SocketOrder::Bunch};
  static constexpr Bytes kSmall = 1024;        // recursive-doubling regime
  static constexpr Bytes kLarge = 128 * 1024;  // ring regime

  Machine machine_;
  ReorderFramework framework_;
};

TEST_F(Shapes, Fig3a_RdmhGainsGrowWithSizeOnBlockBunch) {
  auto base = path(kBlockBunch, MapperKind::None);
  auto h = path(kBlockBunch, MapperKind::Heuristic);
  const double small = improvement(base, h, 256);
  const double mid = improvement(base, h, 8 * 1024);
  EXPECT_GT(small, 20.0);
  EXPECT_GT(mid, small);  // improvement increases with message size
  EXPECT_GT(mid, 50.0);   // the paper's "up to ~67%" band
  EXPECT_LT(mid, 85.0);
}

TEST_F(Shapes, Fig3a_RingOnBlockBunchDoesNotDegrade) {
  auto base = path(kBlockBunch, MapperKind::None);
  auto h = path(kBlockBunch, MapperKind::Heuristic);
  EXPECT_NEAR(improvement(base, h, kLarge), 0.0, 0.5);
}

TEST_F(Shapes, Fig3c_RingOnCyclicGainsLarge) {
  auto base = path(kCyclicBunch, MapperKind::None);
  auto h = path(kCyclicBunch, MapperKind::Heuristic);
  const double impr = improvement(base, h, kLarge);
  EXPECT_GT(impr, 60.0);  // the paper's "up to 78%" band
  EXPECT_LT(impr, 95.0);
}

TEST_F(Shapes, Fig3_ScotchDegradesFlatRd) {
  auto base = path(kBlockBunch, MapperKind::None);
  auto s = path(kBlockBunch, MapperKind::ScotchLike);
  EXPECT_LT(improvement(base, s, kSmall), -50.0);
}

TEST_F(Shapes, Fig3_InitCommBeatsEndShuffle) {
  auto base = path(kCyclicBunch, MapperKind::None);
  auto ic = path(kCyclicBunch, MapperKind::Heuristic, OrderFix::InitComm);
  auto es = path(kCyclicBunch, MapperKind::Heuristic, OrderFix::EndShuffle);
  EXPECT_GT(improvement(base, ic, kSmall), improvement(base, es, kSmall));
}

TEST_F(Shapes, Fig4a_HierBlockBunchLargeIsNeutral) {
  auto base = path(kBlockBunch, MapperKind::None, OrderFix::InitComm, true);
  auto h = path(kBlockBunch, MapperKind::Heuristic, OrderFix::InitComm, true);
  EXPECT_NEAR(improvement(base, h, kLarge), 0.0, 3.0);
}

TEST_F(Shapes, Fig4b_HierBlockScatterLargeGains) {
  auto base = path(kBlockScatter, MapperKind::None, OrderFix::InitComm, true);
  auto h =
      path(kBlockScatter, MapperKind::Heuristic, OrderFix::InitComm, true);
  EXPECT_GT(improvement(base, h, kLarge), 2.0);  // paper: ~3%
}

TEST_F(Shapes, Fig4cd_HierLinearLargeIsNeutral) {
  auto base = path(kBlockBunch, MapperKind::None, OrderFix::InitComm, true,
                   IntraAlgo::Linear);
  auto h = path(kBlockBunch, MapperKind::Heuristic, OrderFix::InitComm, true,
                IntraAlgo::Linear);
  EXPECT_NEAR(improvement(base, h, kLarge), 0.0, 3.0);
}

TEST_F(Shapes, Fig4_HierGainsLowerThanFlatForSmall) {
  auto flat_base = path(kBlockBunch, MapperKind::None);
  auto flat_h = path(kBlockBunch, MapperKind::Heuristic);
  auto hier_base =
      path(kBlockBunch, MapperKind::None, OrderFix::InitComm, true);
  auto hier_h =
      path(kBlockBunch, MapperKind::Heuristic, OrderFix::InitComm, true);
  EXPECT_LE(improvement(hier_base, hier_h, kSmall),
            improvement(flat_base, flat_h, kSmall) + 1.0);
}

TEST_F(Shapes, Fig7_HeuristicsNotSlowerThanScotchLike) {
  // Mapping work in deterministic counters: the heuristic's free-slot scan
  // steps against the graph mapper's bisection swap evaluations.
  auto work = [this](MapperKind kind, const char* counter) {
    auto p = path(kBlockBunch, kind);
    prof::Profiler profiler;
    {
      prof::ScopedThreadProfiler guard(&profiler);
      p.latency(kSmall);
    }
    return profiler.snapshot().counter_total(counter);
  };
  const double h = work(MapperKind::Heuristic, "mapping.scan_steps");
  const double s = work(MapperKind::ScotchLike, "bisection.swap_evals");
  EXPECT_GT(h, 0.0);
  // A scan step is one free slot considered: read one by one (a distance
  // load and compare) or settled from its pool block's cluster free count,
  // plus its tie-break draw if it ties the minimum.  A swap evaluation
  // prices a vertex pair against its adjacency.  At this size on an x86-64
  // host (RelWithDebInfo) RDMH spends ~2.5-3.7 ns per scan step (36% of
  // them reads) and the graph mapper ~54 ns per swap evaluation, graph
  // build included.  Pricing a swap
  // evaluation at a conservative 5 scan steps: same order of magnitude at
  // worst, the graph mapper must not be cheaper by more than ~2x.
  constexpr double kScanStepsPerSwapEval = 5.0;
  EXPECT_LT(h, 2.0 * kScanStepsPerSwapEval * s);
}

}  // namespace
}  // namespace tarr
