#include "collectives/allgatherv.hpp"

#include "collectives/allgather.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "collectives/contracts.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
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

std::vector<int> random_counts(int p, Rng& rng, int max_count = 9) {
  std::vector<int> counts(p);
  for (int& c : counts) c = 1 + static_cast<int>(rng.next_below(max_count));
  return counts;
}

class AllgathervFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AllgathervFuzz, VariableSizesInOriginalOrder) {
  Rng rng(500 + GetParam());
  const int p = 2 + static_cast<int>(rng.next_below(40));
  const Machine m = Machine::gpc((p + 7) / 8);
  const Communicator comm(
      m, make_layout(m, p,
                     simmpi::all_layouts()[GetParam() % 4]));
  const auto counts = random_counts(p, rng);
  const int total = std::accumulate(counts.begin(), counts.end(), 0);

  // Identity and reordered.
  for (bool reorder : {false, true}) {
    Communicator use = comm;
    std::vector<Rank> oldrank(p);
    std::iota(oldrank.begin(), oldrank.end(), 0);
    if (reorder) {
      ReorderFramework fw(m);
      auto rc = fw.reorder(comm, mapping::Pattern::Ring);
      use = rc.comm;
      oldrank = rc.oldrank;
    }
    Engine eng(use, simmpi::CostConfig{}, ExecMode::Data, 1, total);
    run_allgatherv_ring(eng, counts, oldrank);
    check_output(eng, contract_allgatherv(counts, oldrank));
    EXPECT_EQ(eng.stages_executed(), p - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllgathervFuzz, ::testing::Range(0, 12));

TEST(Allgatherv, UniformCountsMatchFixedRingTime) {
  // With equal counts the v-variant must price exactly like the fixed ring.
  const Machine m = Machine::gpc(4);
  const int p = 32;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  const Bytes msg = 4096;

  Engine v(comm, simmpi::CostConfig{}, ExecMode::Timed, 1,
           p * static_cast<int>(msg));
  run_allgatherv_ring(v, std::vector<int>(p, static_cast<int>(msg)));

  Engine fixed(comm, simmpi::CostConfig{}, ExecMode::Data, msg, p);
  run_allgather(fixed, AllgatherOptions{AllgatherAlgo::Ring,
                                        OrderFix::None});
  EXPECT_NEAR(v.total(), fixed.total(), 1e-9 * fixed.total());
}

TEST(Allgatherv, SkewedSizesCostMoreThanBalanced) {
  // One giant contributor dominates every stage it passes through.
  const Machine m = Machine::gpc(2);
  const int p = 16;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  std::vector<int> balanced(p, 1024);
  std::vector<int> skewed(p, 2);
  skewed[5] = 1024 * p - 2 * (p - 1);  // same total volume

  Engine b(comm, simmpi::CostConfig{}, ExecMode::Timed, 1, 1024 * p);
  run_allgatherv_ring(b, balanced);
  Engine s(comm, simmpi::CostConfig{}, ExecMode::Timed, 1, 1024 * p);
  run_allgatherv_ring(s, skewed);
  EXPECT_GT(s.total(), b.total());
}

TEST(Allgatherv, InputValidation) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 1, 64);
  EXPECT_THROW(run_allgatherv_ring(eng, {1, 2, 3}), Error);       // size
  EXPECT_THROW(run_allgatherv_ring(eng, {1, 0, 1, 1}), Error);    // zero
  Engine wrong_block(comm, simmpi::CostConfig{}, ExecMode::Data, 8, 64);
  EXPECT_THROW(run_allgatherv_ring(wrong_block, {1, 1, 1, 1}), Error);
  Engine small(comm, simmpi::CostConfig{}, ExecMode::Data, 1, 3);
  EXPECT_THROW(run_allgatherv_ring(small, {1, 1, 1, 1}), Error);
}

}  // namespace
}  // namespace tarr::collectives
