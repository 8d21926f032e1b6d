// Tests for the neighbor-exchange allgather, the standalone scatter, and
// the engine's schedule introspection (stage observer).

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "collectives/allgather.hpp"
#include "collectives/contracts.hpp"
#include "collectives/gather_bcast.hpp"
#include "collectives/neighbor.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "core/framework.hpp"
#include "simmpi/layout.hpp"

namespace tarr::collectives {
namespace {

using core::ReorderFramework;
using simmpi::Communicator;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::LayoutSpec;
using simmpi::make_layout;
using topology::Machine;

/// Hands every stage the engine it is attached to ends to
/// `fn(stage, transfers, cost)`.
struct StageSink final : trace::TraceSink {
  explicit StageSink(std::function<void(int, int, Usec)> f)
      : fn(std::move(f)) {}
  void on_stage(const trace::StageEvent& e) override {
    fn(e.stage, e.transfers, e.duration);
  }
  std::function<void(int, int, Usec)> fn;
};

class NeighborAllgather
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(NeighborAllgather, OutputInOriginalRankOrder) {
  const auto [p, reorder] = GetParam();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(
      m, make_layout(m, p,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Scatter}));
  Communicator use = comm;
  std::vector<Rank> oldrank = identity_permutation(p);
  if (reorder) {
    ReorderFramework fw(m);
    auto rc = fw.reorder(comm, mapping::Pattern::Ring);
    use = rc.comm;
    oldrank = rc.oldrank;
  }
  Engine eng(use, simmpi::CostConfig{}, ExecMode::Data, 48, p);
  run_allgather_neighbor(eng, oldrank);
  // Neighbor exchange seeds and delivers exactly like the ring.
  check_output(eng, contract_allgather(p, p, AllgatherAlgo::Ring, oldrank));
}

INSTANTIATE_TEST_SUITE_P(
    EvenSizes, NeighborAllgather,
    ::testing::Combine(::testing::Values(1, 2, 4, 6, 8, 10, 16, 30, 32, 64),
                       ::testing::Values(false, true)));

TEST(NeighborAllgatherShape, HalfTheStagesOfTheRing) {
  // The algorithm's selling point: p/2 stages instead of p-1.
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 16, 32);
  run_allgather_neighbor(eng);
  EXPECT_EQ(eng.stages_executed(), 16);  // p/2
}

TEST(NeighborAllgatherShape, RejectsOddSizes) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 5, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 16, 5);
  EXPECT_THROW(run_allgather_neighbor(eng), Error);
}

class ScatterCorrectness
    : public ::testing::TestWithParam<std::tuple<TreeAlgo, int, bool>> {};

TEST_P(ScatterCorrectness, EveryRankGetsItsBlock) {
  const auto [algo, p, reorder] = GetParam();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Communicator use = comm;
  std::vector<Rank> oldrank = identity_permutation(p);
  if (reorder) {
    ReorderFramework fw(m);
    auto rc = fw.reorder(comm, mapping::Pattern::BinomialGather);
    use = rc.comm;
    oldrank = rc.oldrank;
  }
  Engine eng(use, simmpi::CostConfig{}, ExecMode::Data, 64, p);
  run_scatter(eng, algo, oldrank);
  check_output(eng, contract_scatter(p, p, algo, oldrank));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScatterCorrectness,
    ::testing::Combine(::testing::Values(TreeAlgo::Linear,
                                         TreeAlgo::Binomial),
                       ::testing::Values(1, 2, 3, 5, 8, 16, 24, 32),
                       ::testing::Values(false, true)));

TEST(ScatterShape, BinomialBeatsLinearLatency) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  Engine lin(comm, simmpi::CostConfig{}, ExecMode::Timed, 64, 32);
  Engine bin(comm, simmpi::CostConfig{}, ExecMode::Timed, 64, 32);
  const auto id = identity_permutation(32);
  EXPECT_GT(run_scatter(lin, TreeAlgo::Linear, id),
            run_scatter(bin, TreeAlgo::Binomial, id));
}

TEST(StageObserver, CountsAlgorithmStages) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));

  struct Record {
    int stages = 0;
    int total_transfers = 0;
    Usec total_cost = 0.0;
  } rec;
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 32, 32);
  StageSink sink([&rec](int stage, int transfers, Usec cost) {
    EXPECT_EQ(stage, rec.stages);
    rec.stages++;
    rec.total_transfers += transfers;
    rec.total_cost += cost;
  });
  eng.set_trace_sink(&sink);
  run_allgather(eng, AllgatherOptions{AllgatherAlgo::RecursiveDoubling,
                                      OrderFix::None});
  EXPECT_EQ(rec.stages, 5);  // log2(32)
  EXPECT_EQ(rec.total_transfers, 5 * 32);
  EXPECT_NEAR(rec.total_cost, eng.total(), 1e-9);
  EXPECT_EQ(eng.stages_executed(), 5);
}

TEST(StageObserver, RingStageCountInDataMode) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 32, 16);
  int stages = 0;
  StageSink sink([&](int, int, Usec) { ++stages; });
  eng.set_trace_sink(&sink);
  run_allgather(eng, AllgatherOptions{AllgatherAlgo::Ring, OrderFix::None});
  EXPECT_EQ(stages, 15);  // p-1
}

TEST(StageObserver, GatherBinomialStageCount) {
  const Machine m = Machine::gpc(3);
  const Communicator comm(m, make_layout(m, 24, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 32, 24);
  run_gather(eng, TreeAlgo::Binomial, OrderFix::None,
             identity_permutation(24));
  EXPECT_EQ(eng.stages_executed(), ceil_log2(24));  // 5 halving stages
}

}  // namespace
}  // namespace tarr::collectives
