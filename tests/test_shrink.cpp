// Shrink-and-continue: dead nodes excised, collectives rebuilt over the
// survivors on the degraded machine, audited end to end in Data mode.

#include "fault/shrink.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "collectives/allgather.hpp"
#include "collectives/contracts.hpp"
#include "collectives/gather_bcast.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "fault/degraded.hpp"
#include "fault/fault_mask.hpp"
#include "mapping/mapper.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "topology/fattree.hpp"

namespace tarr::fault {
namespace {

using simmpi::Communicator;
using simmpi::Engine;
using simmpi::ExecMode;
using topology::Machine;

/// Two cores per node so a 16-rank block layout spans all 8 nodes (rank 2t
/// and 2t+1 live on node t).
Machine small_machine(int nodes = 8) {
  return Machine(topology::NodeShape{.sockets = 1, .cores_per_socket = 2},
                 topology::build_two_level_fattree(nodes, 4, 2));
}

TEST(Shrink, SurvivorsKeepRelativeOrder) {
  const Machine base = small_machine();
  const Communicator parent(base, simmpi::make_layout(base, 16, {}));
  const DegradedTopology topo(base, FaultMask{}.fail_node(1).fail_node(6));
  const ShrunkComm shrunk = shrink_communicator(topo, parent);

  // 8 nodes x 2 ranks each; nodes 1 and 6 die -> ranks {2,3,12,13} die.
  EXPECT_EQ(shrunk.comm.size(), 12);
  EXPECT_EQ(shrunk.dead_ranks, (std::vector<Rank>{2, 3, 12, 13}));
  ASSERT_EQ(shrunk.parent_rank.size(), 12u);
  for (std::size_t j = 1; j < shrunk.parent_rank.size(); ++j)
    EXPECT_LT(shrunk.parent_rank[j - 1], shrunk.parent_rank[j]);
  for (Rank j = 0; j < shrunk.comm.size(); ++j)
    EXPECT_EQ(shrunk.comm.core_of(j), parent.core_of(shrunk.parent_rank[j]));
}

TEST(Shrink, EmptyMaskIsIdentity) {
  const Machine base = small_machine();
  const Communicator parent(base, simmpi::make_layout(base, 16, {}));
  const DegradedTopology topo(base, FaultMask{});
  const ShrunkComm shrunk = shrink_communicator(topo, parent);
  EXPECT_EQ(shrunk.comm.size(), parent.size());
  EXPECT_TRUE(shrunk.dead_ranks.empty());
  EXPECT_EQ(shrunk.comm.rank_to_core(), parent.rank_to_core());
}

TEST(Shrink, AllDeadThrows) {
  const Machine base = small_machine();
  const Communicator parent(base, simmpi::make_layout(base, 4, {}));  // 2 nodes
  const DegradedTopology topo(base, FaultMask{}.fail_node(0).fail_node(1));
  EXPECT_THROW(shrink_communicator(topo, parent), Error);
}

TEST(Shrink, PartitionReportsStructuredComponents) {
  // Kill both spines: every leaf becomes its own island.  Survivor ranks
  // span several islands -> structured PartitionedError.
  const Machine base = small_machine();
  const topology::SwitchGraph& g = base.network();
  FaultMask mask;
  for (NetVertexId v = 0; v < g.num_vertices(); ++v)
    if (g.vertex(v).kind == topology::VertexKind::SpineSwitch)
      mask.fail_switch(v);
  const DegradedTopology topo(base, std::move(mask));
  const Communicator parent(base, simmpi::make_layout(base, 16, {}));
  try {
    shrink_communicator(topo, parent);
    FAIL() << "expected PartitionedError";
  } catch (const topology::PartitionedError& e) {
    EXPECT_EQ(e.info().components.size(), 2u);  // two 4-node leaf islands
    EXPECT_EQ(e.info().components[0], (std::vector<NodeId>{0, 1, 2, 3}));
    EXPECT_EQ(e.info().components[1], (std::vector<NodeId>{4, 5, 6, 7}));
    EXPECT_NE(std::string(e.what()).find("partitioned"), std::string::npos);
  }
}

TEST(Shrink, PartitionIgnoredWhenSurvivorsFitOneComponent) {
  // Same two-island fabric, but the parent only occupies the first leaf:
  // the survivors are mutually connected, so shrink succeeds.
  const Machine base = small_machine();
  const topology::SwitchGraph& g = base.network();
  FaultMask mask;
  for (NetVertexId v = 0; v < g.num_vertices(); ++v)
    if (g.vertex(v).kind == topology::VertexKind::SpineSwitch)
      mask.fail_switch(v);
  const DegradedTopology topo(base, std::move(mask));
  const Communicator parent(base, simmpi::make_layout(base, 8, {}));  // leaf 0
  const ShrunkComm shrunk = shrink_communicator(topo, parent);
  EXPECT_EQ(shrunk.comm.size(), 8);
}

/// Survivor bookkeeping of a valid shrink: parent_rank is a strictly
/// increasing injection into [0, parent_size) — survivors keep their
/// relative order.
void expect_survivor_order(const ShrunkComm& shrunk, int parent_size) {
  ASSERT_EQ(static_cast<int>(shrunk.parent_rank.size()), shrunk.comm.size());
  Rank prev = -1;
  for (const Rank r : shrunk.parent_rank) {
    EXPECT_GT(r, prev);
    EXPECT_LT(r, parent_size);
    prev = r;
  }
}

/// Runs each collective over the shrunken communicator in Data mode and
/// checks it against the standard contract at the survivor count.
void run_and_audit_survivor_collectives(const DegradedTopology& topo,
                                        const Communicator& parent) {
  using collectives::check_output;
  const ShrunkComm shrunk = shrink_communicator(topo, parent);
  expect_survivor_order(shrunk, parent.size());
  const int s = shrunk.comm.size();
  const auto identity = identity_permutation(s);

  {
    Engine eng(shrunk.comm, simmpi::CostConfig{}, ExecMode::Data, 64, s);
    collectives::run_allgather(
        eng,
        {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
        identity);
    check_output(eng, collectives::contract_allgather(
                          s, s, collectives::AllgatherAlgo::Ring, identity));
  }
  {
    Engine eng(shrunk.comm, simmpi::CostConfig{}, ExecMode::Data, 64, s);
    collectives::run_gather(eng, collectives::TreeAlgo::Binomial,
                            collectives::OrderFix::EndShuffle, identity);
    check_output(eng, collectives::contract_gather(
                          s, s, collectives::TreeAlgo::Binomial, identity));
  }
  {
    Engine eng(shrunk.comm, simmpi::CostConfig{}, ExecMode::Data, 64, s);
    collectives::run_bcast(eng, collectives::TreeAlgo::Binomial);
    check_output(eng, collectives::contract_bcast(
                          s, s, collectives::TreeAlgo::Binomial));
  }
}

TEST(Shrink, SurvivorCollectivesPassExtendedAudit) {
  const Machine base = small_machine();
  const Communicator parent(base, simmpi::make_layout(base, 16, {}));
  const DegradedTopology topo(base,
                              FaultMask{}.fail_node(0).fail_node(3).fail_node(5));
  run_and_audit_survivor_collectives(topo, parent);
}

TEST(Shrink, SurvivorCollectivesPassAuditUnderLinkLossToo) {
  // Node failures combined with a cut spine uplink: routes change but the
  // survivors stay connected via the second spine.
  const Machine base = small_machine();
  const Communicator parent(base, simmpi::make_layout(base, 16, {}));
  const DegradedTopology topo(base, FaultMask{}.fail_node(2).fail_link(0));
  run_and_audit_survivor_collectives(topo, parent);
}

TEST(Shrink, ParentOnWrongMachineRejected) {
  const Machine base = small_machine();
  const Machine other = small_machine(4);
  const Communicator parent(other, simmpi::make_layout(other, 8, {}));
  const DegradedTopology topo(base, FaultMask{}.fail_node(1));
  EXPECT_THROW(shrink_communicator(topo, parent), Error);
}

TEST(DegradedTopology, DistanceMatrixFeedsAllMappers) {
  // The degraded distance matrix is a drop-in input for every mapper: all
  // five heuristics must produce valid mappings over survivor slots using
  // distances extracted from the degraded router.
  const Machine base = small_machine();
  const DegradedTopology topo(base, FaultMask{}.fail_link(1));
  const topology::DistanceMatrix d = topo.distances();
  const Communicator parent(base, simmpi::make_layout(base, 16, {}));
  const ShrunkComm shrunk = shrink_communicator(topo, parent);
  const std::vector<int> slots(shrunk.comm.rank_to_core().begin(),
                               shrunk.comm.rank_to_core().end());
  for (auto pattern :
       {mapping::Pattern::RecursiveDoubling, mapping::Pattern::Ring,
        mapping::Pattern::BinomialBcast, mapping::Pattern::BinomialGather,
        mapping::Pattern::Bruck}) {
    Rng rng(17);
    const auto mapper = mapping::make_heuristic(pattern);
    // RDMH wants a power-of-two process count.
    const std::vector<int> input(
        slots.begin(),
        pattern == mapping::Pattern::RecursiveDoubling ? slots.begin() + 16
                                                       : slots.end());
    EXPECT_NO_THROW(mapper->checked_map(input, d, rng)) << mapper->name();
  }
}

TEST(DegradedTopology, SplitPairsPricedAtInfinity) {
  const Machine base = small_machine();
  const topology::SwitchGraph& g = base.network();
  FaultMask mask;
  for (NetVertexId v = 0; v < g.num_vertices(); ++v)
    if (g.vertex(v).kind == topology::VertexKind::SpineSwitch)
      mask.fail_switch(v);
  const DegradedTopology topo(base, std::move(mask));
  const topology::DistanceMatrix d = topo.distances().node_level();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(d.at(0, 4), inf);  // across the cut
  EXPECT_LT(d.at(0, 3), inf);  // same island
  EXPECT_LT(d.at(4, 7), inf);
}

}  // namespace
}  // namespace tarr::fault
