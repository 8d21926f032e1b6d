#include "simmpi/communicator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/permutation.hpp"
#include "simmpi/layout.hpp"

namespace tarr::simmpi {
namespace {

using topology::Machine;

TEST(Communicator, BasicLookups) {
  const Machine m = Machine::gpc(2);
  const Communicator c(m, make_layout(m, 16, LayoutSpec{}));
  EXPECT_EQ(c.size(), 16);
  EXPECT_EQ(c.core_of(0), 0);
  EXPECT_EQ(c.node_of(8), 1);
  EXPECT_EQ(c.socket_of(4), 1);
  EXPECT_EQ(c.rank_on_core(3), 3);
}

TEST(Communicator, RankOnUnusedCoreIsNoRank) {
  const Machine m = Machine::gpc(2);
  const Communicator c(m, {0, 2, 4});
  EXPECT_EQ(c.rank_on_core(0), 0);
  EXPECT_EQ(c.rank_on_core(1), kNoRank);
  EXPECT_EQ(c.rank_on_core(4), 2);
}

TEST(Communicator, RejectsDuplicateCores) {
  const Machine m = Machine::gpc(1);
  EXPECT_THROW(Communicator(m, {0, 0}), Error);
  EXPECT_THROW(Communicator(m, {0, 99}), Error);
  EXPECT_THROW(Communicator(m, {}), Error);
}

TEST(Communicator, ReorderedKeepsCoreSet) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, {0, 1, 2, 3});
  const Communicator r = c.reordered({3, 1, 0, 2});
  EXPECT_EQ(r.core_of(0), 3);
  EXPECT_THROW(c.reordered({0, 1, 2, 4}), Error);
  EXPECT_THROW(c.reordered({0, 1, 2}), Error);
}

TEST(Communicator, PermutationToReordered) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, {0, 1, 2, 3});
  const Communicator r = c.reordered({3, 1, 0, 2});
  // Process on core 0 had rank 0, now has rank 2 (r.core_of(2) == 0).
  const auto perm = c.permutation_to(r);
  EXPECT_EQ(perm, (std::vector<Rank>{2, 1, 3, 0}));
  EXPECT_TRUE(is_permutation_of_iota(perm));
  // Consistency: r.core_of(perm[old]) == c.core_of(old).
  for (Rank old = 0; old < 4; ++old)
    EXPECT_EQ(r.core_of(perm[old]), c.core_of(old));
}

TEST(Communicator, NodeContiguity) {
  const Machine m = Machine::gpc(2);
  const Communicator block(
      m, make_layout(m, 16, LayoutSpec{NodeOrder::Block, SocketOrder::Bunch}));
  EXPECT_TRUE(block.node_contiguous());
  const Communicator cyclic(
      m,
      make_layout(m, 16, LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch}));
  EXPECT_FALSE(cyclic.node_contiguous());
  // Partial node occupancy is not node-contiguous either.
  const Communicator partial(m, {0, 1, 2});
  EXPECT_FALSE(partial.node_contiguous());
}

TEST(Communicator, NodeContiguityAfterIntraNodePermute) {
  const Machine m = Machine::gpc(2);
  // Block layout with sockets scattered is still node-contiguous.
  const Communicator c(
      m,
      make_layout(m, 16, LayoutSpec{NodeOrder::Block, SocketOrder::Scatter}));
  EXPECT_TRUE(c.node_contiguous());
}

}  // namespace
}  // namespace tarr::simmpi
