#include "collectives/allreduce.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "collectives/contracts.hpp"
#include "common/error.hpp"
#include "core/framework.hpp"
#include "simmpi/layout.hpp"

namespace tarr::collectives {
namespace {

using simmpi::Communicator;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::LayoutSpec;
using simmpi::make_layout;
using topology::Machine;

/// Reduction runners do not seed: write the contract's seed tags first.
void seed_inputs(Engine& eng, const analyze::Contract& c) {
  for (const analyze::Contract::Seed& s : c.seeds)
    eng.set_block(s.rank, s.block, s.tag);
}

class AllreduceRd : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceRd, EveryRankHoldsXorOfAllContributions) {
  const int p = GetParam();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 256, 1);
  const analyze::Contract c = contract_allreduce_rd(p, 1);
  seed_inputs(eng, c);
  run_allreduce_rd(eng);
  check_output(eng, c);
}

INSTANTIATE_TEST_SUITE_P(Pow2, AllreduceRd,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

TEST(AllreduceRdErrors, RejectsNonPow2) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 6, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 1);
  EXPECT_THROW(run_allreduce_rd(eng), Error);
}

class Rabenseifner : public ::testing::TestWithParam<int> {};

TEST_P(Rabenseifner, BlockwiseXorReduction) {
  const int p = GetParam();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, p);
  const analyze::Contract c = contract_allreduce_rabenseifner(p, p);
  seed_inputs(eng, c);
  run_allreduce_rabenseifner(eng);
  check_output(eng, c);
}

INSTANTIATE_TEST_SUITE_P(Pow2, Rabenseifner,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

class AllreduceRing : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceRing, EveryRankHoldsXorOfAllContributions) {
  const int p = GetParam();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  // Ring reduce-scatter + allgather works on p chunks: buf_blocks = p.  It
  // computes Rabenseifner's blockwise reduction, so it has that contract.
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 256, p);
  const analyze::Contract c = contract_allreduce_rabenseifner(p, p);
  seed_inputs(eng, c);
  run_allreduce_ring(eng);
  check_output(eng, c);
}

// Unlike recursive doubling, the ring handles non-powers-of-two too.
INSTANTIATE_TEST_SUITE_P(AnyP, AllreduceRing,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16));

TEST(AllreduceRing, TimedModeChargesPositiveCost) {
  const Machine m = Machine::gpc(2);
  const int p = 16;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Timed, 4096, p);
  const Usec t = run_allreduce_ring(eng);
  EXPECT_GT(t, 0.0);
}

TEST(AllreduceReordered, RdmhReorderPreservesResult) {
  // Reductions are order-independent: a reordered communicator needs no
  // §V-B mechanism and must produce the identical value.
  const Machine m = Machine::gpc(4);
  const int p = 32;
  const Communicator comm(
      m, make_layout(m, p,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Scatter}));
  core::ReorderFramework fw(m);
  const auto rc = fw.reorder(comm, mapping::Pattern::RecursiveDoubling);

  Engine eng(rc.comm, simmpi::CostConfig{}, ExecMode::Data, 128, 1);
  const analyze::Contract c = contract_allreduce_rd(p, 1);
  seed_inputs(eng, c);
  run_allreduce_rd(eng);
  check_output(eng, c);
}

TEST(AllreduceCost, RabenseifnerBeatsRdForLargeMessages) {
  // The bandwidth-optimal algorithm must win at scale for large vectors.
  const Machine m = Machine::gpc(8);
  const int p = 64;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  const Bytes msg = 1 << 20;

  Engine rd(comm, simmpi::CostConfig{}, ExecMode::Timed, msg, 1);
  const Usec t_rd = run_allreduce_rd(rd);

  Engine rab(comm, simmpi::CostConfig{}, ExecMode::Timed, msg / p, p);
  const Usec t_rab = run_allreduce_rabenseifner(rab);
  EXPECT_LT(t_rab, t_rd);
}

}  // namespace
}  // namespace tarr::collectives
