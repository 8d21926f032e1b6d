// Tests for the pipelined hierarchical allgather (phase overlap) and the
// layout-spec / transfer-observer additions.

#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <utility>

#include "collectives/allgather.hpp"
#include "collectives/contracts.hpp"
#include "collectives/hierarchical.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "core/framework.hpp"
#include "prof/obs.hpp"
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

class PipelinedHier
    : public ::testing::TestWithParam<std::tuple<int, IntraAlgo, bool,
                                                 OrderFix>> {};

TEST_P(PipelinedHier, OutputInOriginalRankOrder) {
  const auto [nodes, gather_algo, reorder, fix] = GetParam();
  const Machine m = Machine::gpc(nodes);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Communicator use = comm;
  std::vector<Rank> oldrank = identity_permutation(p);
  if (reorder) {
    ReorderFramework fw(m);
    const auto rmh = mapping::make_heuristic(mapping::Pattern::Ring);
    const auto bbmh = mapping::make_heuristic(mapping::Pattern::BinomialBcast);
    auto rc =
        fw.reorder_with(comm, mapping::HierarchicalMapper(*rmh, bbmh.get()));
    use = rc.comm;
    oldrank = rc.oldrank;
  }
  Engine eng(use, simmpi::CostConfig{}, ExecMode::Data, 32, p);
  run_hier_allgather_pipelined(eng, gather_algo, fix, oldrank);
  check_output(eng, contract_hier_allgather(p, p, oldrank, true));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelinedHier,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 8),
                       ::testing::Values(IntraAlgo::Linear,
                                         IntraAlgo::Binomial),
                       ::testing::Values(false, true),
                       ::testing::Values(OrderFix::InitComm,
                                         OrderFix::EndShuffle)));

TEST(PipelinedHierShape, OverlapBeatsSequentialPhases) {
  // The point of pipelining: with many nodes and a non-trivial message the
  // overlapped version must be faster than gather -> full ring -> bcast.
  const Machine m = Machine::gpc(32);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  const Bytes msg = 16 * 1024;

  Engine seq(comm, simmpi::CostConfig{}, ExecMode::Timed, msg, p);
  run_hier_allgather(seq,
                     HierAllgatherOptions{AllgatherAlgo::Ring,
                                          IntraAlgo::Binomial,
                                          OrderFix::None});
  Engine pipe(comm, simmpi::CostConfig{}, ExecMode::Timed, msg, p);
  run_hier_allgather_pipelined(pipe, IntraAlgo::Binomial, OrderFix::None,
                               identity_permutation(p));
  EXPECT_LT(pipe.total(), seq.total());
}

TEST(PipelinedHierShape, RejectsCyclicAndOddCores) {
  const Machine m = Machine::gpc(2);
  const Communicator cyclic(
      m, make_layout(m, 16,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Bunch}));
  Engine eng(cyclic, simmpi::CostConfig{}, ExecMode::Data, 32, 16);
  EXPECT_THROW(run_hier_allgather_pipelined(eng, IntraAlgo::Binomial,
                                            OrderFix::None,
                                            identity_permutation(16)),
               Error);
}

}  // namespace
}  // namespace tarr::collectives

namespace tarr::simmpi {
namespace {

/// Hands every logical transfer between distinct ranks of the engine it is
/// attached to to `fn(src_core, dst_core, bytes)`.
struct TransferSink final : trace::TraceSink {
  explicit TransferSink(std::function<void(CoreId, CoreId, Bytes)> f)
      : fn(std::move(f)) {}
  void on_transfer(const trace::TransferEvent& e) override {
    if (e.src_rank != e.dst_rank) fn(e.src_core, e.dst_core, e.bytes);
  }
  std::function<void(CoreId, CoreId, Bytes)> fn;
};

TEST(ParseLayoutSpec, LibraryNames) {
  EXPECT_EQ(parse_layout_spec("block-bunch").node, NodeOrder::Block);
  EXPECT_EQ(parse_layout_spec("cyclic-scatter").socket,
            SocketOrder::Scatter);
}

TEST(ParseLayoutSpec, SlurmNames) {
  const LayoutSpec a = parse_layout_spec("block:block");
  EXPECT_EQ(a.node, NodeOrder::Block);
  EXPECT_EQ(a.socket, SocketOrder::Bunch);
  const LayoutSpec b = parse_layout_spec("cyclic:cyclic");
  EXPECT_EQ(b.node, NodeOrder::Cyclic);
  EXPECT_EQ(b.socket, SocketOrder::Scatter);
  const LayoutSpec c = parse_layout_spec("block:cyclic");
  EXPECT_EQ(c.node, NodeOrder::Block);
  EXPECT_EQ(c.socket, SocketOrder::Scatter);
}

TEST(ParseLayoutSpec, RejectsUnknown) {
  EXPECT_THROW(parse_layout_spec("plane"), Error);
  EXPECT_THROW(parse_layout_spec("block:plane"), Error);
  EXPECT_THROW(parse_layout_spec("fcyclic:block"), Error);
}

TEST(TransferObserver, ConservationLawForAllgather) {
  // Fundamental invariant: any correct allgather must import at least
  // (p - cores_on_node) * m bytes into every node, whatever the mapping.
  const topology::Machine m = topology::Machine::gpc(4);
  const int p = 32;
  const Bytes msg = 128;
  for (int layout_idx = 0; layout_idx < 4; ++layout_idx) {
    const Communicator comm(
        m, make_layout(m, p, all_layouts()[layout_idx]));
    for (auto algo : {collectives::AllgatherAlgo::RecursiveDoubling,
                      collectives::AllgatherAlgo::Ring,
                      collectives::AllgatherAlgo::Bruck}) {
      std::vector<double> inbound(m.num_nodes(), 0.0);
      TransferSink sink([&](CoreId src, CoreId dst, Bytes bytes) {
        const NodeId a = m.node_of_core(src);
        const NodeId b = m.node_of_core(dst);
        if (a != b) inbound[b] += static_cast<double>(bytes);
      });
      obs::Install traced(&sink);
      Engine eng(comm, CostConfig{}, ExecMode::Data, msg, p);
      collectives::run_allgather(
          eng, collectives::AllgatherOptions{algo,
                                             collectives::OrderFix::None});
      for (NodeId n = 0; n < m.num_nodes(); ++n) {
        int on_node = 0;
        for (Rank r = 0; r < p; ++r) on_node += comm.node_of(r) == n;
        if (on_node == 0) continue;
        EXPECT_GE(inbound[n] + 1e-9,
                  static_cast<double>(p - on_node) * msg)
            << collectives::to_string(algo) << " node " << n;
      }
    }
  }
}

TEST(TransferObserver, CyclicMakesRecursiveDoublingTrafficMinimal) {
  // The mechanism behind MVAPICH's internal block->cyclic reorder and
  // behind RDMH: under a cyclic placement, RD imports exactly
  // (p - on_node) * m bytes into each node (each rank pulls distinct
  // external blocks; the late heavy stages stay intra-node), while under a
  // block placement every rank pulls the full external data redundantly —
  // 8x the minimum on these 8-core nodes.
  const topology::Machine m = topology::Machine::gpc(4);
  const int p = 32;
  const Bytes msg = 64;

  auto inbound_per_node = [&](const LayoutSpec& spec) {
    const Communicator comm(m, make_layout(m, p, spec));
    std::vector<double> inbound(m.num_nodes(), 0.0);
    TransferSink sink([&](CoreId src, CoreId dst, Bytes bytes) {
      if (m.node_of_core(src) != m.node_of_core(dst))
        inbound[m.node_of_core(dst)] += static_cast<double>(bytes);
    });
    obs::Install traced(&sink);
    Engine eng(comm, CostConfig{}, ExecMode::Data, msg, p);
    collectives::run_allgather(
        eng,
        collectives::AllgatherOptions{
            collectives::AllgatherAlgo::RecursiveDoubling,
            collectives::OrderFix::None});
    return inbound;
  };

  const double minimum = static_cast<double>(p - 8) * msg;
  const auto cyclic = inbound_per_node(
      LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch});
  for (NodeId n = 0; n < 4; ++n) EXPECT_DOUBLE_EQ(cyclic[n], minimum);

  const auto block = inbound_per_node(LayoutSpec{});
  for (NodeId n = 0; n < 4; ++n) EXPECT_DOUBLE_EQ(block[n], 8.0 * minimum);
}

}  // namespace
}  // namespace tarr::simmpi
