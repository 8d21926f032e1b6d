#include "collectives/alltoall.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "collectives/contracts.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "core/framework.hpp"
#include "prof/obs.hpp"
#include "simmpi/layout.hpp"
#include "trace/tracer.hpp"

namespace tarr::collectives {
namespace {

using core::ReorderFramework;
using simmpi::Communicator;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::LayoutSpec;
using simmpi::make_layout;
using topology::Machine;

using Param = std::tuple<AlltoallAlgo, int, bool>;

class AlltoallCorrectness : public ::testing::TestWithParam<Param> {};

TEST_P(AlltoallCorrectness, EveryPairDelivers) {
  const auto [algo, p, reorder] = GetParam();
  if (algo == AlltoallAlgo::PairwiseXor && !is_pow2(p)) GTEST_SKIP();
  const Machine m = Machine::gpc(std::max(1, (p + 7) / 8));
  if (p > m.total_cores()) GTEST_SKIP();
  const Communicator comm(
      m, make_layout(m, p,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Bunch}));

  Communicator use = comm;
  std::vector<Rank> oldrank = identity_permutation(p);
  if (reorder) {
    // Any reordering works: alltoall keeps output order in place.
    ReorderFramework fw(m);
    auto rc = fw.reorder(comm, mapping::Pattern::Ring);
    use = rc.comm;
    oldrank = rc.oldrank;
  }

  Engine eng(use, simmpi::CostConfig{}, ExecMode::Data, 64, 2 * p);
  const Usec t = run_alltoall(eng, algo, oldrank);
  if (p > 1) {
    EXPECT_GT(t, 0.0);
  }
  check_output(eng, contract_alltoall(p, 2 * p, algo, oldrank));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AlltoallCorrectness,
    ::testing::Combine(::testing::Values(AlltoallAlgo::PairwiseXor,
                                         AlltoallAlgo::Rotation),
                       ::testing::Values(1, 2, 3, 4, 7, 8, 16, 24, 32),
                       ::testing::Values(false, true)));

TEST(Alltoall, PairwiseXorRejectsNonPow2) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 6, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 12);
  EXPECT_THROW(
      run_alltoall(eng, AlltoallAlgo::PairwiseXor, identity_permutation(6)),
      Error);
}

TEST(Alltoall, BufferTooSmallRejected) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 7);
  EXPECT_THROW(
      run_alltoall(eng, AlltoallAlgo::Rotation, identity_permutation(4)),
      Error);
}

TEST(Alltoall, TagEncodesBothEndpoints) {
  EXPECT_NE(alltoall_tag(1, 2), alltoall_tag(2, 1));
  EXPECT_EQ(alltoall_tag(3, 4), alltoall_tag(3, 4));
}

TEST(Alltoall, TimedMatchesData) {
  const Machine m = Machine::gpc(4);
  const Communicator comm(m, make_layout(m, 32, LayoutSpec{}));
  const std::vector<Rank> id = identity_permutation(32);
  for (auto algo : {AlltoallAlgo::PairwiseXor, AlltoallAlgo::Rotation}) {
    Engine timed(comm, simmpi::CostConfig{}, ExecMode::Timed, 512, 64);
    Engine data(comm, simmpi::CostConfig{}, ExecMode::Data, 512, 64);
    EXPECT_NEAR(run_alltoall(timed, algo, id), run_alltoall(data, algo, id),
                1e-9);
  }
}

/// Peak over the stages of `rec` of a cable's load / its capacity
/// (`qpi` false) or of a QPI direction's bytes (`qpi` true); 0 when none
/// was loaded.
double peak_load(const trace::ScheduleRecord& rec, const Machine& m,
                 bool qpi, int stage = -1) {
  double peak = 0.0;
  for (const trace::RecordedStage& s : rec.stages) {
    if (stage >= 0 && s.stage != stage) continue;
    for (const trace::Load& l : rec.loads_of(s))
      if (l.qpi == qpi)
        peak = std::max(peak, qpi ? l.bytes
                                  : l.bytes / m.network().link(l.id).capacity);
  }
  return peak;
}

TEST(CongestionStats, RecordedLoadsExposeLinkLoads) {
  const Machine m = Machine::gpc(60);
  const Communicator comm(m, make_layout(m, 480, LayoutSpec{}));
  trace::Tracer recorder;
  {
    obs::Install traced(&recorder);
    Engine eng(comm, simmpi::CostConfig{}, ExecMode::Timed, 1024, 1);
    // 30 nodes of leaf 0 each firing one transfer to leaf 1: the shared
    // uplinks see an aggregated load well above one message.
    eng.begin_stage();
    for (int n = 0; n < 30; ++n)
      eng.copy(n * 8, 0, (30 + n) * 8, 0, 1);
    eng.end_stage();
  }
  const trace::ScheduleRecord& rec = recorder.record();
  ASSERT_EQ(rec.stages.size(), 1u);
  EXPECT_EQ(rec.stages[0].num_transfers, 30);
  EXPECT_GT(peak_load(rec, m, /*qpi=*/false), 2.0 * 1024);
  EXPECT_EQ(peak_load(rec, m, /*qpi=*/true), 0.0);
}

TEST(CongestionStats, QpiLoadTracked) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 8, LayoutSpec{}));
  trace::Tracer recorder;
  {
    obs::Install traced(&recorder);
    Engine eng(comm, simmpi::CostConfig{}, ExecMode::Timed, 4096, 1);
    eng.begin_stage();
    for (int k = 0; k < 4; ++k) eng.copy(k, 0, 4 + k, 0, 1);
    eng.end_stage();
  }
  EXPECT_DOUBLE_EQ(peak_load(recorder.record(), m, /*qpi=*/true), 4.0 * 4096);
  EXPECT_EQ(peak_load(recorder.record(), m, /*qpi=*/false), 0.0);
}

TEST(CongestionStats, LoadsArePerStage) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, LayoutSpec{}));
  trace::Tracer recorder;
  {
    obs::Install traced(&recorder);
    Engine eng(comm, simmpi::CostConfig{}, ExecMode::Timed, 1024, 1);
    eng.begin_stage();
    for (int k = 0; k < 8; ++k) eng.copy(k, 0, 8 + k, 0, 1);
    eng.end_stage();
    eng.begin_stage();
    eng.copy(0, 0, 8, 0, 1);
    eng.end_stage();
  }
  const trace::ScheduleRecord& rec = recorder.record();
  const double first = peak_load(rec, m, /*qpi=*/false, 0);
  EXPECT_LT(peak_load(rec, m, /*qpi=*/false, 1), first);
  EXPECT_DOUBLE_EQ(peak_load(rec, m, /*qpi=*/false), first);
}

}  // namespace
}  // namespace tarr::collectives
