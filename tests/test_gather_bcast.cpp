#include "collectives/gather_bcast.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "collectives/contracts.hpp"
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

/// Parameter: (algo, p, reorder?, fix).
using GatherParam = std::tuple<TreeAlgo, int, bool, OrderFix>;

class GatherCorrectness : public ::testing::TestWithParam<GatherParam> {};

TEST_P(GatherCorrectness, RootHoldsBlocksInOriginalOrder) {
  const auto [algo, p, reorder, fix] = GetParam();
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
  run_gather(eng, algo, fix, oldrank);
  check_output(eng, contract_gather(p, p, algo, oldrank));
}

INSTANTIATE_TEST_SUITE_P(
    BinomialReordered, GatherCorrectness,
    ::testing::Combine(::testing::Values(TreeAlgo::Binomial),
                       ::testing::Values(1, 2, 3, 5, 8, 16, 24, 32),
                       ::testing::Values(true),
                       ::testing::Values(OrderFix::InitComm,
                                         OrderFix::EndShuffle)));

INSTANTIATE_TEST_SUITE_P(
    BinomialIdentity, GatherCorrectness,
    ::testing::Combine(::testing::Values(TreeAlgo::Binomial),
                       ::testing::Values(1, 4, 7, 16, 32),
                       ::testing::Values(false),
                       ::testing::Values(OrderFix::None)));

// Linear gather addresses slots directly; no mechanism needed even under
// reordering.
INSTANTIATE_TEST_SUITE_P(
    Linear, GatherCorrectness,
    ::testing::Combine(::testing::Values(TreeAlgo::Linear),
                       ::testing::Values(1, 2, 5, 8, 16),
                       ::testing::Values(false, true),
                       ::testing::Values(OrderFix::None)));

TEST(Gather, LinearSerializesArrivals) {
  // p-1 sequential stages: linear gather of p ranks costs at least p-1
  // channel latencies.
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, LayoutSpec{}));
  Engine lin(comm, simmpi::CostConfig{}, ExecMode::Timed, 64, 16);
  Engine bin(comm, simmpi::CostConfig{}, ExecMode::Timed, 64, 16);
  const Usec t_lin = run_gather(lin, TreeAlgo::Linear, OrderFix::None,
                                identity_permutation(16));
  const Usec t_bin = run_gather(bin, TreeAlgo::Binomial, OrderFix::None,
                                identity_permutation(16));
  EXPECT_GT(t_lin, t_bin);  // log stages beat serialized arrivals
}

class BcastCorrectness
    : public ::testing::TestWithParam<std::tuple<TreeAlgo, int>> {};

TEST_P(BcastCorrectness, EveryRankReceivesTheMessage) {
  const auto [algo, p] = GetParam();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 1);
  run_bcast(eng, algo);
  check_output(eng, contract_bcast(p, 1, algo));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BcastCorrectness,
    ::testing::Combine(::testing::Values(TreeAlgo::Linear,
                                         TreeAlgo::Binomial),
                       ::testing::Values(1, 2, 3, 6, 8, 13, 16, 32)));

class ScatterAllgatherBcast : public ::testing::TestWithParam<int> {};

TEST_P(ScatterAllgatherBcast, ReassemblesTheMessageEverywhere) {
  const int p = GetParam();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, p);
  run_bcast_scatter_allgather(eng, AllgatherAlgo::Ring);
  check_output(eng,
               contract_bcast_scatter_allgather(p, p, AllgatherAlgo::Ring));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScatterAllgatherBcast,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 24));

TEST(ScatterAllgatherBcastRd, PowerOfTwoUsesRecursiveDoubling) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 16);
  run_bcast_scatter_allgather(eng, AllgatherAlgo::RecursiveDoubling);
  check_output(eng, contract_bcast_scatter_allgather(
                        16, 16, AllgatherAlgo::RecursiveDoubling));
}

TEST(ScatterAllgatherBcastRd, BruckPhaseRejected) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 4);
  EXPECT_THROW(run_bcast_scatter_allgather(eng, AllgatherAlgo::Bruck), Error);
}

}  // namespace
}  // namespace tarr::collectives
