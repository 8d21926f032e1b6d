// Randomized property tests: arbitrary (seeded) permutations, machines and
// schedules must uphold the same invariants the structured tests check.

#include <gtest/gtest.h>

#include <algorithm>

#include "collectives/allgather.hpp"
#include "collectives/contracts.hpp"
#include "common/permutation.hpp"
#include "common/rng.hpp"
#include "fault/degraded.hpp"
#include "fault/fault_mask.hpp"
#include "fault/shrink.hpp"
#include "fuzz_support.hpp"
#include "mapping/heuristics.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "topology/distance.hpp"
#include "topology/fattree.hpp"

namespace tarr {
namespace {

using collectives::AllgatherAlgo;
using collectives::AllgatherOptions;
using collectives::OrderFix;
using fuzz::arbitrary_reorder;
using fuzz::random_permutation;
using simmpi::Communicator;
using simmpi::Engine;
using simmpi::ExecMode;
using topology::Machine;

class FuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeeds, AllgatherCorrectUnderArbitraryPermutations) {
  Rng rng(1000 + GetParam());
  const int nodes = 1 + static_cast<int>(rng.next_below(6));
  const Machine m = Machine::gpc(nodes);
  // Power-of-two p for RD; ring/bruck get arbitrary sizes below.
  const int p = std::min<int>(topology::Machine::gpc(nodes).total_cores(),
                              1 << (2 + rng.next_below(4)));
  const auto spec =
      simmpi::all_layouts()[rng.next_below(4)];
  const Communicator comm(m, simmpi::make_layout(m, p, spec));
  const auto oldrank = random_permutation(p, rng);
  const Communicator reordered = arbitrary_reorder(comm, oldrank);

  for (OrderFix fix : {OrderFix::InitComm, OrderFix::EndShuffle}) {
    Engine eng(reordered, simmpi::CostConfig{}, ExecMode::Data, 32, p);
    collectives::run_allgather(
        eng, AllgatherOptions{AllgatherAlgo::RecursiveDoubling, fix},
        oldrank);
    collectives::check_output(
        eng, collectives::contract_allgather(
                 p, p, AllgatherAlgo::RecursiveDoubling, oldrank));
  }
}

TEST_P(FuzzSeeds, RingAndBruckSelfCorrectAnySizeAnyPermutation) {
  Rng rng(2000 + GetParam());
  const int nodes = 1 + static_cast<int>(rng.next_below(5));
  const Machine m = Machine::gpc(nodes);
  const int p = 2 + static_cast<int>(rng.next_below(m.total_cores() - 1));
  const Communicator comm(
      m, simmpi::make_layout(m, p, simmpi::all_layouts()[GetParam() % 4]));
  const auto oldrank = random_permutation(p, rng);
  const Communicator reordered = arbitrary_reorder(comm, oldrank);

  for (AllgatherAlgo algo : {AllgatherAlgo::Ring, AllgatherAlgo::Bruck}) {
    Engine eng(reordered, simmpi::CostConfig{}, ExecMode::Data, 16, p);
    collectives::run_allgather(eng, AllgatherOptions{algo, OrderFix::None},
                               oldrank);
    collectives::check_output(
        eng, collectives::contract_allgather(p, p, algo, oldrank));
  }
}

TEST_P(FuzzSeeds, TimedEqualsDataOnRandomSchedules) {
  // The two execution modes must account exactly the same time for any
  // stage/copy sequence.
  Rng rng(3000 + GetParam());
  const Machine m = Machine::gpc(1 + rng.next_below(4));
  const int p = 2 + static_cast<int>(rng.next_below(m.total_cores() - 1));
  const Communicator comm(m, simmpi::make_layout(m, p, {}));
  const int blocks = 4;

  struct Copy {
    Rank src, dst;
    int soff, doff, n;
  };
  std::vector<std::vector<Copy>> stages(1 + rng.next_below(6));
  for (auto& stage : stages) {
    // Keep the schedule well-formed: within a stage no destination block may
    // be written twice (the engine's schedule verifier rejects such
    // non-deterministic stages), so drop candidates that collide.
    std::vector<char> written(static_cast<std::size_t>(p) * blocks, 0);
    const int k = 1 + static_cast<int>(rng.next_below(12));
    for (int i = 0; i < k; ++i) {
      Copy c;
      c.src = static_cast<Rank>(rng.next_below(p));
      c.dst = static_cast<Rank>(rng.next_below(p));
      c.n = 1 + static_cast<int>(rng.next_below(blocks));
      c.soff = static_cast<int>(rng.next_below(blocks - c.n + 1));
      c.doff = static_cast<int>(rng.next_below(blocks - c.n + 1));
      const std::size_t base =
          static_cast<std::size_t>(c.dst) * blocks + c.doff;
      bool clashes = false;
      for (int b = 0; b < c.n; ++b) clashes |= written[base + b] != 0;
      if (clashes) continue;
      for (int b = 0; b < c.n; ++b) written[base + b] = 1;
      stage.push_back(c);
    }
  }

  auto run = [&](ExecMode mode) {
    Engine eng(comm, simmpi::CostConfig{}, mode, 777, blocks);
    for (const auto& stage : stages) {
      eng.begin_stage();
      for (const auto& c : stage) eng.copy(c.src, c.soff, c.dst, c.doff, c.n);
      eng.end_stage();
    }
    return eng.total();
  };
  const Usec t_timed = run(ExecMode::Timed);
  const Usec t_data = run(ExecMode::Data);
  EXPECT_NEAR(t_timed, t_data, 1e-9 * std::max(1.0, t_data));
}

TEST_P(FuzzSeeds, HeuristicsValidOnRandomCoreSubsets) {
  // Communicators over arbitrary core subsets (not whole nodes) are legal
  // inputs; heuristics must still emit permutations with rank 0 fixed.
  Rng rng(4000 + GetParam());
  const Machine m = Machine::gpc(2 + rng.next_below(6));
  const auto d = topology::extract_distances(m);
  // Choose a random subset of cores.
  std::vector<int> cores = random_permutation(m.total_cores(), rng);
  const int p = 2 + static_cast<int>(rng.next_below(
                        std::min(30, m.total_cores() - 2)));
  cores.resize(p);
  std::vector<int> initial = cores;

  for (auto pattern : {mapping::Pattern::Ring,
                       mapping::Pattern::BinomialBcast,
                       mapping::Pattern::BinomialGather,
                       mapping::Pattern::Bruck}) {
    Rng r2(rng.next_u64());
    const auto mapper = mapping::make_heuristic(pattern);
    const auto result = mapper->map(initial, d, r2);
    auto a = initial;
    auto b = result;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << mapper->name();
    EXPECT_EQ(result[0], initial[0]);
  }
}

TEST_P(FuzzSeeds, ShrunkenAllgatherSurvivesRandomFaultMasks) {
  // Random component failures (links, nodes, or both) either partition the
  // fabric — reported structurally — or leave a survivor set, in parent
  // order, over which a Data-mode ring allgather still satisfies the
  // standard contract at the survivor count.
  // Under TARR_SLOW_CHECKS the engine's StageVerifier additionally shadows
  // every stage of the degraded schedule.
  Rng rng(5000 + GetParam());
  const int nodes = 4 + static_cast<int>(rng.next_below(8));
  const Machine m(topology::NodeShape{.sockets = 1, .cores_per_socket = 2},
                  topology::build_two_level_fattree(nodes, 2, 2));
  const topology::SwitchGraph& g = m.network();

  fault::FaultMask mask;
  const int dead_nodes = static_cast<int>(rng.next_below(nodes - 1));
  const fault::FaultMask node_draw =
      fault::FaultMask::random_nodes(g, dead_nodes, rng);
  for (const NodeId n : node_draw.failed_nodes()) mask.fail_node(n);
  const int cut_links = static_cast<int>(rng.next_below(4));
  const fault::FaultMask link_draw =
      fault::FaultMask::random_links(g, cut_links, rng, true);
  for (const LinkId l : link_draw.failed_links()) mask.fail_link(l);

  const fault::DegradedTopology topo(m, std::move(mask));
  const Communicator parent(
      m, simmpi::make_layout(m, m.total_cores(), {}));
  try {
    const fault::ShrunkComm shrunk = fault::shrink_communicator(topo, parent);
    const int s = shrunk.comm.size();
    // Survivors keep their relative order: parent_rank is a strictly
    // increasing injection into the parent's ranks.
    ASSERT_EQ(static_cast<int>(shrunk.parent_rank.size()), s);
    Rank prev = -1;
    for (const Rank r : shrunk.parent_rank) {
      EXPECT_GT(r, prev);
      EXPECT_LT(r, parent.size());
      prev = r;
    }
    Engine eng(shrunk.comm, simmpi::CostConfig{}, ExecMode::Data, s, s);
    const auto identity = identity_permutation(s);
    collectives::run_allgather(
        eng, AllgatherOptions{AllgatherAlgo::Ring, OrderFix::None}, identity);
    collectives::check_output(
        eng, collectives::contract_allgather(s, s, AllgatherAlgo::Ring,
                                             identity));
  } catch (const topology::PartitionedError& e) {
    EXPECT_GE(e.info().components.size(), 2u);
  }
}

TEST_P(FuzzSeeds, TransientFaultsKeepTimedDataParityOnRandomSchedules) {
  // Same random-schedule parity property as above, but with the transient
  // fault model armed: both modes draw the identical attempt sequences, so
  // totals must still match exactly.
  Rng rng(6000 + GetParam());
  const Machine m = Machine::gpc(1 + rng.next_below(3));
  const int p =
      2 + static_cast<int>(rng.next_below(std::min(12, m.total_cores() - 1)));
  const Communicator comm(m, simmpi::make_layout(m, p, {}));
  const int blocks = 3;

  struct Copy {
    Rank src, dst;
    int off, n;
  };
  std::vector<std::vector<Copy>> stages(1 + rng.next_below(5));
  for (auto& stage : stages) {
    std::vector<char> written(static_cast<std::size_t>(p) * blocks, 0);
    const int k = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < k; ++i) {
      Copy c;
      c.src = static_cast<Rank>(rng.next_below(p));
      c.dst = static_cast<Rank>(rng.next_below(p));
      c.n = 1 + static_cast<int>(rng.next_below(blocks));
      c.off = static_cast<int>(rng.next_below(blocks - c.n + 1));
      const std::size_t base = static_cast<std::size_t>(c.dst) * blocks + c.off;
      bool clashes = false;
      for (int b = 0; b < c.n; ++b) clashes |= written[base + b] != 0;
      if (clashes) continue;
      for (int b = 0; b < c.n; ++b) written[base + b] = 1;
      stage.push_back(c);
    }
  }

  simmpi::TransientFaultConfig faults;
  faults.drop_prob = 0.15;
  faults.corrupt_prob = 0.1;
  faults.seed = 42 + GetParam();
  auto run = [&](ExecMode mode) {
    Engine eng(comm, simmpi::CostConfig{}, mode, 321, blocks);
    eng.set_transient_faults(faults);
    for (const auto& stage : stages) {
      eng.begin_stage();
      for (const auto& c : stage) eng.copy(c.src, c.off, c.dst, c.off, c.n);
      eng.end_stage();
    }
    return eng.total();
  };
  EXPECT_EQ(run(ExecMode::Timed), run(ExecMode::Data));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 24));

}  // namespace
}  // namespace tarr
