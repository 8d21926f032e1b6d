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

TEST(Communicator, OldrankOfReordered) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, {0, 1, 2, 3});
  const Communicator r = c.reordered({3, 1, 0, 2});
  // New rank 0 runs on core 3, where old rank 3 ran.
  const auto oldrank = c.oldrank_of(r);
  EXPECT_EQ(oldrank, (std::vector<Rank>{3, 1, 0, 2}));
  EXPECT_TRUE(is_permutation_of_iota(oldrank));
  // Consistency: c.core_of(oldrank[new]) == r.core_of(new).
  for (Rank nr = 0; nr < 4; ++nr)
    EXPECT_EQ(c.core_of(oldrank[nr]), r.core_of(nr));
  // Sparse core sets: old ranks, not core ids.
  const Communicator sparse(m, {6, 2, 4});
  EXPECT_EQ(sparse.oldrank_of(sparse.reordered({2, 4, 6})),
            (std::vector<Rank>{1, 2, 0}));
}

TEST(Communicator, OldrankOfRejectsAnotherSizeOrCoreSet) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, {0, 1, 2, 3});
  EXPECT_THROW(c.oldrank_of(Communicator(m, {0, 1, 2})), Error);
  EXPECT_THROW(c.oldrank_of(Communicator(m, {0, 1, 2, 3, 4})), Error);
  EXPECT_THROW(c.oldrank_of(Communicator(m, {0, 1, 2, 5})), Error);
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
