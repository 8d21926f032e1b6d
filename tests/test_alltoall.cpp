#include "collectives/alltoall.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "collectives/contracts.hpp"
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

using Param = std::tuple<AlltoallAlgo, int, bool>;

class AlltoallCorrectness : public ::testing::TestWithParam<Param> {};

TEST_P(AlltoallCorrectness, EveryPairDelivers) {
  const auto [algo, p, reorder] = GetParam();
  if (algo == AlltoallAlgo::PairwiseXor && !is_pow2(p)) GTEST_SKIP();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(
      m, make_layout(m, p,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Bunch}));

  Communicator use = comm;
  std::vector<Rank> oldrank = identity_permutation(p);
  if (reorder) {
    // Any reordering works: alltoall keeps output order in place.
    ReorderFramework fw(m);
    auto rc = fw.reorder(comm, mapping::Pattern::Ring);
    use = rc.comm;
    oldrank = rc.oldrank;
  }

  Engine eng(use, simmpi::CostConfig{}, ExecMode::Data, 64, 2 * p);
  const Usec t = run_alltoall(eng, algo, oldrank);
  if (p > 1) {
    EXPECT_GT(t, 0.0);
  }
  check_output(eng, contract_alltoall(p, 2 * p, algo, oldrank));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AlltoallCorrectness,
    ::testing::Combine(::testing::Values(AlltoallAlgo::PairwiseXor,
                                         AlltoallAlgo::Rotation),
                       ::testing::Values(1, 2, 3, 4, 7, 8, 16, 24, 32),
                       ::testing::Values(false, true)));

TEST(Alltoall, PairwiseXorRejectsNonPow2) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 6, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 12);
  EXPECT_THROW(run_alltoall(eng, AlltoallAlgo::PairwiseXor), Error);
}

TEST(Alltoall, BufferTooSmallRejected) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 7);
  EXPECT_THROW(run_alltoall(eng, AlltoallAlgo::Rotation), Error);
}

TEST(Alltoall, TagEncodesBothEndpoints) {
  EXPECT_NE(alltoall_tag(1, 2), alltoall_tag(2, 1));
  EXPECT_EQ(alltoall_tag(3, 4), alltoall_tag(3, 4));
}

TEST(Alltoall, TimedMatchesData) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  for (auto algo : {AlltoallAlgo::PairwiseXor, AlltoallAlgo::Rotation}) {
    Engine timed(comm, simmpi::CostConfig{}, ExecMode::Timed, 512, 64);
    Engine data(comm, simmpi::CostConfig{}, ExecMode::Data, 512, 64);
    EXPECT_NEAR(run_alltoall(timed, algo), run_alltoall(data, algo), 1e-9);
  }
}

TEST(CongestionStats, StageStatsExposeLinkLoads) {
  const Machine m = Machine::gpc(60);
  const Communicator comm(m, make_layout(m, 480, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Timed, 1024, 1);
  // 30 nodes of leaf 0 each firing one transfer to leaf 1: the shared
  // uplinks see an aggregated load well above one message.
  eng.begin_stage();
  for (int n = 0; n < 30; ++n)
    eng.copy(n * 8, 0, (30 + n) * 8, 0, 1);
  eng.end_stage();
  const auto& stats = eng.last_stage_stats();
  EXPECT_EQ(stats.transfers, 30);
  EXPECT_GT(stats.max_link_bytes, 2.0 * 1024);
  EXPECT_EQ(stats.max_qpi_bytes, 0.0);
  EXPECT_DOUBLE_EQ(eng.peak_link_bytes(), stats.max_link_bytes);
}

TEST(CongestionStats, QpiLoadTracked) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 8, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Timed, 4096, 1);
  eng.begin_stage();
  for (int k = 0; k < 4; ++k) eng.copy(k, 0, 4 + k, 0, 1);
  eng.end_stage();
  EXPECT_DOUBLE_EQ(eng.last_stage_stats().max_qpi_bytes, 4.0 * 4096);
  EXPECT_EQ(eng.last_stage_stats().max_link_bytes, 0.0);
}

TEST(CongestionStats, ResetPerStage) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Timed, 1024, 1);
  eng.begin_stage();
  for (int k = 0; k < 8; ++k) eng.copy(k, 0, 8 + k, 0, 1);
  eng.end_stage();
  const double first = eng.last_stage_stats().max_link_bytes;
  eng.begin_stage();
  eng.copy(0, 0, 8, 0, 1);
  eng.end_stage();
  EXPECT_LT(eng.last_stage_stats().max_link_bytes, first);
  EXPECT_DOUBLE_EQ(eng.peak_link_bytes(), first);  // peak persists
}

}  // namespace
}  // namespace tarr::collectives
