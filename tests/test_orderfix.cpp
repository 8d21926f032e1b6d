#include "collectives/orderfix.hpp"

#include <gtest/gtest.h>

#include "collectives/contracts.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "simmpi/layout.hpp"

namespace tarr::collectives {
namespace {

using simmpi::Communicator;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::LayoutSpec;
using simmpi::make_layout;
using topology::Machine;

Engine make_engine(const Communicator& c, ExecMode mode) {
  return Engine(c, simmpi::CostConfig{}, mode, 64, c.size());
}

TEST(OrderFix, SeedPlacesOldRankTags) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 4, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data);
  const std::vector<Rank> oldrank{2, 0, 3, 1};
  seed_allgather_inputs(e, oldrank);
  for (Rank j = 0; j < 4; ++j)
    EXPECT_EQ(e.block(j, j), static_cast<std::uint32_t>(oldrank[j]));
}

TEST(OrderFix, InitCommRelocatesInputs) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 4, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data);
  const std::vector<Rank> oldrank{2, 0, 3, 1};
  seed_allgather_inputs(e, oldrank);
  init_comm_exchange(e, oldrank);
  // After the exchange, new rank j's slot j holds original rank j's data.
  for (Rank j = 0; j < 4; ++j)
    EXPECT_EQ(e.block(j, j), static_cast<std::uint32_t>(j));
}

TEST(OrderFix, InitCommIdentityIsFree) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 4, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Timed);
  init_comm_exchange(e, identity_permutation(4));
  EXPECT_DOUBLE_EQ(e.total(), 0.0);
}

TEST(OrderFix, InitCommCostsOneStage) {
  const Machine m = Machine::gpc(2);
  const Communicator c(m, make_layout(m, 16, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Timed);
  std::vector<Rank> swap = identity_permutation(16);
  std::swap(swap[0], swap[15]);  // one cross-node exchange pair
  init_comm_exchange(e, swap);
  EXPECT_GT(e.total(), 0.0);
}

TEST(OrderFix, EndShuffleReordersOutput) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 4, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data);
  const std::vector<Rank> oldrank{2, 0, 3, 1};
  // Simulate a finished allgather in new-rank order: slot j holds the block
  // of original rank oldrank[j].
  for (Rank r = 0; r < 4; ++r)
    for (int b = 0; b < 4; ++b)
      e.set_block(r, b, static_cast<std::uint32_t>(oldrank[b]));
  end_shuffle(e, oldrank);
  check_output(e, contract_allgather(4, 4, AllgatherAlgo::RecursiveDoubling,
                                     oldrank));
}

TEST(OrderFix, SizeMismatchesRejected) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 4, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data);
  EXPECT_THROW(seed_allgather_inputs(e, identity_permutation(3)), Error);
  EXPECT_THROW(init_comm_exchange(e, identity_permutation(5)), Error);
  EXPECT_THROW(end_shuffle(e, identity_permutation(2)), Error);
}

}  // namespace
}  // namespace tarr::collectives
