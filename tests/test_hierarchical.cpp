#include "collectives/hierarchical.hpp"

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

/// Parameter: (nodes, leader algo, intra algo, reorder?, fix).
using Param = std::tuple<int, AllgatherAlgo, IntraAlgo, bool, OrderFix>;

class HierAllgather : public ::testing::TestWithParam<Param> {};

TEST_P(HierAllgather, OutputInOriginalRankOrder) {
  const auto [nodes, leader_algo, intra, reorder, fix] = GetParam();
  const Machine m = Machine::gpc(nodes);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));

  Communicator use = comm;
  std::vector<Rank> oldrank = identity_permutation(p);
  if (reorder) {
    ReorderFramework fw(m);
    const auto pattern = leader_algo == AllgatherAlgo::RecursiveDoubling
                             ? mapping::Pattern::RecursiveDoubling
                             : mapping::Pattern::Ring;
    auto rc = fw.reorder_hierarchical(comm, pattern,
                                      intra == IntraAlgo::Binomial);
    use = rc.comm;
    oldrank = rc.oldrank;
  }

  Engine eng(use, simmpi::CostConfig{}, ExecMode::Data, 32, p);
  const HierAllgatherOptions opts{leader_algo, intra, fix};
  run_hier_allgather(eng, opts, oldrank);
  check_output(eng, contract_hier_allgather(p, p, oldrank, false));
}

INSTANTIATE_TEST_SUITE_P(
    Reordered, HierAllgather,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(AllgatherAlgo::RecursiveDoubling,
                                         AllgatherAlgo::Ring),
                       ::testing::Values(IntraAlgo::Linear,
                                         IntraAlgo::Binomial),
                       ::testing::Values(true),
                       ::testing::Values(OrderFix::InitComm,
                                         OrderFix::EndShuffle)));

INSTANTIATE_TEST_SUITE_P(
    Identity, HierAllgather,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(AllgatherAlgo::RecursiveDoubling,
                                         AllgatherAlgo::Ring),
                       ::testing::Values(IntraAlgo::Linear,
                                         IntraAlgo::Binomial),
                       ::testing::Values(false),
                       ::testing::Values(OrderFix::None)));

// Ring leader phase tolerates non-power-of-two node counts.
INSTANTIATE_TEST_SUITE_P(
    NonPow2Nodes, HierAllgather,
    ::testing::Combine(::testing::Values(3, 5, 6),
                       ::testing::Values(AllgatherAlgo::Ring),
                       ::testing::Values(IntraAlgo::Linear,
                                         IntraAlgo::Binomial),
                       ::testing::Values(false),
                       ::testing::Values(OrderFix::None)));

INSTANTIATE_TEST_SUITE_P(
    NonPow2NodesReordered, HierAllgather,
    ::testing::Combine(::testing::Values(3, 5, 6),
                       ::testing::Values(AllgatherAlgo::Ring),
                       ::testing::Values(IntraAlgo::Linear,
                                         IntraAlgo::Binomial),
                       ::testing::Values(true),
                       ::testing::Values(OrderFix::InitComm)));

TEST(HierAllgatherErrors, RejectsCyclicLayout) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(
      m, make_layout(m, 16,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Bunch}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 32, 16);
  EXPECT_THROW(run_hier_allgather(eng, HierAllgatherOptions{}), Error);
}

TEST(HierAllgatherErrors, RdLeadersNeedPow2Nodes) {
  const Machine m = Machine::gpc(3);
  const Communicator comm(m, make_layout(m, 24, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 32, 24);
  HierAllgatherOptions opts;
  opts.leader_algo = AllgatherAlgo::RecursiveDoubling;
  EXPECT_THROW(run_hier_allgather(eng, opts), Error);
}

TEST(HierAllgatherErrors, BruckLeadersRejected) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 32, 16);
  HierAllgatherOptions opts;
  opts.leader_algo = AllgatherAlgo::Bruck;
  EXPECT_THROW(run_hier_allgather(eng, opts), Error);
}

TEST(HierAllgatherTiming, TimedMatchesData) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  for (auto leader : {AllgatherAlgo::RecursiveDoubling, AllgatherAlgo::Ring}) {
    for (auto intra : {IntraAlgo::Linear, IntraAlgo::Binomial}) {
      const HierAllgatherOptions opts{leader, intra, OrderFix::None};
      Engine timed(comm, simmpi::CostConfig{}, ExecMode::Timed, 512, 32);
      Engine data(comm, simmpi::CostConfig{}, ExecMode::Data, 512, 32);
      const Usec tt = run_hier_allgather(timed, opts);
      const Usec td = run_hier_allgather(data, opts);
      EXPECT_NEAR(tt, td, 1e-9 * td)
          << to_string(leader) << "/" << to_string(intra);
    }
  }
}

TEST(HierAllgatherTiming, HierarchyBeatsFlatRingOnCyclicPlacement) {
  // The motivation for hierarchical collectives: with every rank's neighbor
  // off-node (flat ring over block layout is fine, but a flat ring moves
  // p-1 rounds of inter-node boundary traffic; the hierarchical version
  // moves node chunks between leaders only).  At large message sizes the
  // hierarchical path should not be slower than some flat equivalent on the
  // same machine; we only check both paths complete and report sane times.
  const Machine m = Machine::gpc(8);
  const Communicator comm(m, make_layout(m, 64, LayoutSpec{}));
  Engine hier(comm, simmpi::CostConfig{}, ExecMode::Timed, 4096, 64);
  const Usec t =
      run_hier_allgather(hier, HierAllgatherOptions{AllgatherAlgo::Ring,
                                                    IntraAlgo::Binomial,
                                                    OrderFix::None});
  EXPECT_GT(t, 0.0);
}

}  // namespace
}  // namespace tarr::collectives
