// Tests for communicator splitting and binomial reduce.

#include <gtest/gtest.h>

#include "collectives/contracts.hpp"
#include "collectives/reduce_barrier.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "simmpi/layout.hpp"
#include "simmpi/split.hpp"

namespace tarr::simmpi {
namespace {

using topology::Machine;

TEST(Split, ByColorGroupsAndOrders) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 8, LayoutSpec{}));
  const SplitResult res = split_by_color(comm, {1, 0, 1, 0, 1, 0, 1, 0});
  ASSERT_EQ(res.comms.size(), 2u);
  // Color 0 first (ascending color order): parent ranks 1,3,5,7.
  EXPECT_EQ(res.comms[0].size(), 4);
  EXPECT_EQ(res.comms[0].core_of(0), comm.core_of(1));
  EXPECT_EQ(res.comms[0].core_of(3), comm.core_of(7));
  EXPECT_EQ(res.comm_of_rank[1], 0);
  EXPECT_EQ(res.comm_of_rank[0], 1);
  EXPECT_EQ(res.rank_in_comm[5], 2);  // third of {1,3,5,7}
  EXPECT_EQ(res.rank_in_comm[4], 2);  // third of {0,2,4,6}
}

TEST(Split, ByNodeMatchesTopology) {
  const Machine m = Machine::gpc(4);
  const Communicator cyclic(
      m, make_layout(m, 32,
                     LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch}));
  const SplitResult res = split_by_node(cyclic);
  ASSERT_EQ(res.comms.size(), 4u);
  for (const auto& sub : res.comms) {
    EXPECT_EQ(sub.size(), 8);
    for (Rank r = 1; r < sub.size(); ++r)
      EXPECT_EQ(sub.node_of(r), sub.node_of(0));
  }
  for (Rank r = 0; r < cyclic.size(); ++r)
    EXPECT_EQ(res.comms[res.comm_of_rank[r]].core_of(res.rank_in_comm[r]),
              cyclic.core_of(r));
}

TEST(Split, LeadersCommPicksLowestRankPerNode) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  const Communicator leaders = leaders_comm(comm);
  ASSERT_EQ(leaders.size(), 4);
  for (Rank b = 0; b < 4; ++b)
    EXPECT_EQ(leaders.core_of(b), comm.core_of(b * 8));
}

TEST(Split, ColorCountMismatchRejected) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, LayoutSpec{}));
  EXPECT_THROW(split_by_color(comm, {0, 1}), Error);
  EXPECT_THROW(split_by_color(comm, {0, -1, 0, 0}), Error);
}

}  // namespace
}  // namespace tarr::simmpi

namespace tarr::collectives {
namespace {

using simmpi::Communicator;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::LayoutSpec;
using simmpi::make_layout;
using topology::Machine;

class ReduceSizes : public ::testing::TestWithParam<int> {};

TEST_P(ReduceSizes, RootHoldsXorOfAllContributions) {
  const int p = GetParam();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 128, 1);
  // The runner does not seed: write the contract's seed tags first.
  const analyze::Contract c = contract_reduce(p, 1);
  for (const analyze::Contract::Seed& s : c.seeds)
    eng.set_block(s.rank, s.block, s.tag);
  run_reduce_binomial(eng);
  check_output(eng, c);
  EXPECT_EQ(eng.stages_executed(), p > 1 ? ceil_log2(p) : 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReduceSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 32));

}  // namespace
}  // namespace tarr::collectives
