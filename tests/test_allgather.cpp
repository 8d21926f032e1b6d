#include "collectives/allgather.hpp"

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

mapping::Pattern pattern_of(AllgatherAlgo a) {
  switch (a) {
    case AllgatherAlgo::RecursiveDoubling:
      return mapping::Pattern::RecursiveDoubling;
    case AllgatherAlgo::Ring:
      return mapping::Pattern::Ring;
    case AllgatherAlgo::Bruck:
      return mapping::Pattern::Bruck;
  }
  return mapping::Pattern::Ring;
}

/// Parameter: (algo, p, layout index, reorder?, fix).
using Param = std::tuple<AllgatherAlgo, int, int, bool, OrderFix>;

class AllgatherCorrectness : public ::testing::TestWithParam<Param> {};

TEST_P(AllgatherCorrectness, OutputInOriginalRankOrder) {
  const auto [algo, p, layout_idx, reorder, fix] = GetParam();
  const int nodes = std::max(1, (p + 7) / 8);
  const Machine m = Machine::gpc(nodes);
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(
      m, make_layout(m, p, simmpi::all_layouts()[layout_idx]));

  Communicator use = comm;
  std::vector<Rank> oldrank = identity_permutation(p);
  if (reorder) {
    ReorderFramework fw(m);
    auto rc = fw.reorder(comm, pattern_of(algo));
    use = rc.comm;
    oldrank = rc.oldrank;
  }

  Engine eng(use, simmpi::CostConfig{}, ExecMode::Data, /*block=*/64, p);
  const Usec t = run_allgather(eng, AllgatherOptions{algo, fix}, oldrank);
  if (p > 1) {
    EXPECT_GT(t, 0.0);
  } else {
    EXPECT_GE(t, 0.0);
  }
  check_output(eng, contract_allgather(p, p, algo, oldrank));
}

// Recursive doubling (power-of-two sizes) with every order-fix mechanism.
INSTANTIATE_TEST_SUITE_P(
    RecursiveDoubling, AllgatherCorrectness,
    ::testing::Combine(::testing::Values(AllgatherAlgo::RecursiveDoubling),
                       ::testing::Values(1, 2, 4, 8, 16, 32, 64),
                       ::testing::Values(0, 3),
                       ::testing::Values(true),
                       ::testing::Values(OrderFix::InitComm,
                                         OrderFix::EndShuffle)));

// Non-reordered RD needs no mechanism.
INSTANTIATE_TEST_SUITE_P(
    RecursiveDoublingIdentity, AllgatherCorrectness,
    ::testing::Combine(::testing::Values(AllgatherAlgo::RecursiveDoubling),
                       ::testing::Values(1, 2, 8, 32, 64),
                       ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(false),
                       ::testing::Values(OrderFix::None)));

// Ring fixes the order in place for any size and any reordering.
INSTANTIATE_TEST_SUITE_P(
    Ring, AllgatherCorrectness,
    ::testing::Combine(::testing::Values(AllgatherAlgo::Ring),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 24, 48),
                       ::testing::Values(0, 2, 3),
                       ::testing::Values(false, true),
                       ::testing::Values(OrderFix::None)));

// Bruck folds the order fix into its final rotation, any size.
INSTANTIATE_TEST_SUITE_P(
    Bruck, AllgatherCorrectness,
    ::testing::Combine(::testing::Values(AllgatherAlgo::Bruck),
                       ::testing::Values(1, 2, 3, 6, 8, 15, 16, 31, 40),
                       ::testing::Values(0, 3),
                       ::testing::Values(false, true),
                       ::testing::Values(OrderFix::None)));

TEST(Allgather, RdRejectsNonPowerOfTwo) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 6, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 6);
  EXPECT_THROW(run_allgather(
                   eng, AllgatherOptions{AllgatherAlgo::RecursiveDoubling,
                                         OrderFix::None}),
               Error);
}

TEST(Allgather, RejectsBadPermutation) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 4);
  EXPECT_THROW(
      run_allgather(eng, AllgatherOptions{}, std::vector<Rank>{0, 0, 1, 2}),
      Error);
  EXPECT_THROW(run_allgather(eng, AllgatherOptions{}, std::vector<Rank>{0}),
               Error);
}

TEST(Allgather, TimedRingRepeatMatchesExplicitStages) {
  // The Timed-mode stage compression must account exactly the same time as
  // running all p-1 stages explicitly (Data mode prices stages identically).
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  const AllgatherOptions opts{AllgatherAlgo::Ring, OrderFix::None};

  Engine timed(comm, simmpi::CostConfig{}, ExecMode::Timed, 4096, 32);
  const Usec t_timed = run_allgather(timed, opts);

  Engine data(comm, simmpi::CostConfig{}, ExecMode::Data, 4096, 32);
  const Usec t_data = run_allgather(data, opts);

  EXPECT_NEAR(t_timed, t_data, 1e-9 * t_data);
}

TEST(Allgather, RdTimedMatchesData) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  const AllgatherOptions opts{AllgatherAlgo::RecursiveDoubling,
                              OrderFix::None};
  Engine timed(comm, simmpi::CostConfig{}, ExecMode::Timed, 512, 32);
  Engine data(comm, simmpi::CostConfig{}, ExecMode::Data, 512, 32);
  EXPECT_NEAR(run_allgather(timed, opts), run_allgather(data, opts), 1e-9);
}

TEST(Allgather, InitCommCostsMoreThanNone) {
  // The extra exchange must be accounted for whenever ranks moved.
  const Machine m = Machine::gpc(4);
  const Communicator comm(
      m, make_layout(m, 32,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Bunch}));
  ReorderFramework fw(m);
  const auto rc = fw.reorder(comm, mapping::Pattern::RecursiveDoubling);

  Engine with_fix(rc.comm, simmpi::CostConfig{}, ExecMode::Timed, 1024, 32);
  run_allgather(with_fix,
                AllgatherOptions{AllgatherAlgo::RecursiveDoubling,
                                 OrderFix::InitComm},
                rc.oldrank);

  Engine no_fix(rc.comm, simmpi::CostConfig{}, ExecMode::Timed, 1024, 32);
  run_allgather(no_fix,
                AllgatherOptions{AllgatherAlgo::RecursiveDoubling,
                                 OrderFix::None},
                rc.oldrank);
  EXPECT_GT(with_fix.total(), no_fix.total());
}

TEST(Allgather, VolumeScalesTime) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  const AllgatherOptions opts{AllgatherAlgo::Ring, OrderFix::None};
  Engine small(comm, simmpi::CostConfig{}, ExecMode::Timed, 1024, 32);
  Engine large(comm, simmpi::CostConfig{}, ExecMode::Timed, 64 * 1024, 32);
  EXPECT_GT(run_allgather(large, opts), run_allgather(small, opts));
}

}  // namespace
}  // namespace tarr::collectives
