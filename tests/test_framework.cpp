#include "core/framework.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/permutation.hpp"
#include "mapping/comparators.hpp"
#include "mapping/heuristics.hpp"
#include "prof/profiler.hpp"
#include "simmpi/layout.hpp"
#include "trace/sink.hpp"

namespace tarr::core {
namespace {

using simmpi::Communicator;
using simmpi::LayoutSpec;
using simmpi::make_layout;
using topology::Machine;

/// Records the wall spans the framework emits.
struct WallSpans : trace::TraceSink {
  std::vector<trace::WallSpan> spans;
  void on_wall_span(const trace::WallSpan& s) override { spans.push_back(s); }
};

TEST(Framework, DistanceExtractionIsCachedAndTimed) {
  const Machine m = Machine::gpc(4);
  ReorderFramework fw(m);
  EXPECT_EQ(fw.distance_extraction_seconds(), 0.0);
  prof::Profiler profiler;
  prof::ScopedThreadProfiler guard(&profiler);
  auto extractions = [&] {
    const prof::Profile p = profiler.snapshot();
    const prof::ProfileEntry* e = p.find("distance-extraction");
    return e == nullptr ? 0LL : e->calls;
  };
  WallSpans wall;
  fw.set_trace_sink(&wall);
  const auto& d1 = fw.distances();
  const double t = fw.distance_extraction_seconds();
  EXPECT_EQ(extractions(), 1);
  // The accessor returns the measured time, emitted as the wall span.
  ASSERT_EQ(wall.spans.size(), 1u);
  EXPECT_EQ(wall.spans[0].name, "distance-extraction");
  EXPECT_EQ(t, wall.spans[0].seconds);
  const auto& d2 = fw.distances();
  EXPECT_EQ(&d1, &d2);  // cached
  EXPECT_EQ(fw.distance_extraction_seconds(), t);  // not re-extracted
  EXPECT_EQ(extractions(), 1);
  EXPECT_EQ(wall.spans.size(), 1u);
}

TEST(Framework, ReorderInvariants) {
  // The key contract: the reordered communicator covers the same cores, and
  // oldrank links it back to the original (the process stays on its core).
  const Machine m = Machine::gpc(4);
  ReorderFramework fw(m);
  const Communicator comm(
      m, make_layout(m, 32,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Scatter}));
  for (auto pattern : {mapping::Pattern::RecursiveDoubling,
                       mapping::Pattern::Ring,
                       mapping::Pattern::BinomialBcast,
                       mapping::Pattern::BinomialGather}) {
    const ReorderedComm rc = fw.reorder(comm, pattern);
    ASSERT_EQ(rc.comm.size(), comm.size());
    EXPECT_TRUE(is_permutation_of_iota(rc.oldrank));
    for (Rank j = 0; j < comm.size(); ++j) {
      EXPECT_EQ(rc.comm.core_of(j), comm.core_of(rc.oldrank[j]))
          << "pattern " << mapping::to_string(pattern);
    }
    EXPECT_GE(rc.mapping_seconds, 0.0);
  }
}

TEST(Framework, DisabledFrameworkIsIdentity) {
  const Machine m = Machine::gpc(2);
  ReorderFramework::Options opts;
  opts.enabled = false;  // the "info key" off switch
  ReorderFramework fw(m, opts);
  const Communicator comm(m, make_layout(m, 16, LayoutSpec{}));
  const auto rc = fw.reorder(comm, mapping::Pattern::RecursiveDoubling);
  EXPECT_EQ(rc.comm.rank_to_core(), comm.rank_to_core());
  EXPECT_EQ(rc.oldrank, identity_permutation(16));
  EXPECT_EQ(rc.mapping_seconds, 0.0);
  const auto rh = fw.reorder_hierarchical(
      comm, mapping::Pattern::Ring, /*intra_reorder=*/true);
  EXPECT_EQ(rh.comm.rank_to_core(), comm.rank_to_core());
}

TEST(Framework, SeedChangesTieBreaking) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  ReorderFramework::Options o1;
  o1.seed = 1;
  ReorderFramework::Options o2;
  o2.seed = 2;
  ReorderFramework f1(m, o1), f2(m, o2);
  const auto r1 = f1.reorder(comm, mapping::Pattern::RecursiveDoubling);
  const auto r2 = f2.reorder(comm, mapping::Pattern::RecursiveDoubling);
  // Same seed reproduces exactly; different seeds usually differ in the
  // tie-broken slots (we only require determinism, not difference).
  ReorderFramework f1b(m, o1);
  const auto r1b = f1b.reorder(comm, mapping::Pattern::RecursiveDoubling);
  EXPECT_EQ(r1.comm.rank_to_core(), r1b.comm.rank_to_core());
  (void)r2;
}

TEST(Framework, HierarchicalReorderKeepsNodeContiguity) {
  const Machine m = Machine::gpc(4);
  ReorderFramework fw(m);
  const Communicator comm(
      m, make_layout(m, 32,
                     LayoutSpec{simmpi::NodeOrder::Block,
                                simmpi::SocketOrder::Scatter}));
  for (bool intra : {false, true}) {
    const auto rc =
        fw.reorder_hierarchical(comm, mapping::Pattern::Ring, intra);
    EXPECT_TRUE(rc.comm.node_contiguous());
    EXPECT_TRUE(is_permutation_of_iota(rc.oldrank));
    for (Rank j = 0; j < comm.size(); ++j)
      EXPECT_EQ(rc.comm.core_of(j), comm.core_of(rc.oldrank[j]));
  }
}

TEST(Framework, HierarchicalWithoutIntraKeepsLocalOrder) {
  // With intra reordering disabled (linear phases) only whole node blocks
  // may move; the local core of the k-th rank of each block is unchanged.
  const Machine m = Machine::gpc(4);
  ReorderFramework fw(m);
  const Communicator comm(
      m, make_layout(m, 32,
                     LayoutSpec{simmpi::NodeOrder::Block,
                                simmpi::SocketOrder::Scatter}));
  const auto rc = fw.reorder_hierarchical(comm, mapping::Pattern::Ring,
                                          /*intra_reorder=*/false);
  const int cpn = m.cores_per_node();
  for (Rank j = 0; j < comm.size(); ++j) {
    EXPECT_EQ(m.local_core(rc.comm.core_of(j)),
              m.local_core(comm.core_of(j % cpn)));
  }
}

TEST(Framework, HierarchicalRejectsCyclic) {
  const Machine m = Machine::gpc(2);
  ReorderFramework fw(m);
  const Communicator comm(
      m, make_layout(m, 16,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Bunch}));
  EXPECT_THROW(
      fw.reorder_hierarchical(comm, mapping::Pattern::Ring, true), Error);
}

TEST(Framework, ReorderWithCustomMapper) {
  const Machine m = Machine::gpc(2);
  ReorderFramework fw(m);
  const Communicator comm(m, make_layout(m, 16, LayoutSpec{}));
  const auto mapper = mapping::make_scotch_like_mapper(mapping::Pattern::Ring);
  const auto rc = fw.reorder_with(comm, *mapper);
  EXPECT_TRUE(is_permutation_of_iota(rc.oldrank));
  for (Rank j = 0; j < comm.size(); ++j)
    EXPECT_EQ(rc.comm.core_of(j), comm.core_of(rc.oldrank[j]));
}

TEST(Framework, SubsetCommunicatorReorder) {
  // Reordering works for communicators that do not cover whole nodes.
  const Machine m = Machine::gpc(4);
  ReorderFramework fw(m);
  std::vector<CoreId> cores;
  for (int i = 0; i < 12; ++i) cores.push_back(i * 2);  // every other core
  const Communicator comm(m, cores);
  const auto rc = fw.reorder(comm, mapping::Pattern::Ring);
  EXPECT_TRUE(is_permutation_of_iota(rc.oldrank));
  auto sorted_new = rc.comm.rank_to_core();
  std::sort(sorted_new.begin(), sorted_new.end());
  EXPECT_EQ(sorted_new, cores);
}

}  // namespace
}  // namespace tarr::core
