#include "simmpi/async.hpp"

#include <gtest/gtest.h>

#include "collectives/allgather.hpp"
#include "common/error.hpp"
#include "core/framework.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"

namespace tarr::simmpi {
namespace {

using topology::Machine;

AsyncEngine make(const Communicator& c) {
  return AsyncEngine(c, CostConfig{});
}

TEST(AsyncEngine, ClocksStartAtZero) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 4, LayoutSpec{}));
  AsyncEngine eng = make(c);
  for (Rank r = 0; r < 4; ++r) EXPECT_EQ(eng.clock(r), 0.0);
  EXPECT_EQ(eng.makespan(), 0.0);
}

TEST(AsyncEngine, ComputeAdvancesOneClock) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  AsyncEngine eng = make(c);
  eng.compute(1, 10.0);
  EXPECT_EQ(eng.clock(0), 0.0);
  EXPECT_EQ(eng.clock(1), 10.0);
  EXPECT_EQ(eng.makespan(), 10.0);
}

TEST(AsyncEngine, P2pOrdersReceiverAfterSender) {
  const Machine m = Machine::gpc(2);
  const Communicator c(m, make_layout(m, 16, LayoutSpec{}));
  AsyncEngine eng = make(c);
  eng.compute(0, 100.0);
  const Usec arrive = eng.p2p(0, 8, 1024);  // inter-node
  EXPECT_GT(arrive, 100.0);
  EXPECT_EQ(eng.clock(8), arrive);
  // The sender is released before the message lands (overhead < latency).
  EXPECT_LT(eng.clock(0), arrive);
}

TEST(AsyncEngine, SendsSerializeAtTheSender) {
  const Machine m = Machine::gpc(2);
  const Communicator c(m, make_layout(m, 16, LayoutSpec{}));
  AsyncEngine eng = make(c);
  const Bytes b = 1 << 20;
  const Usec first = eng.p2p(0, 8, b);
  const Usec second = eng.p2p(0, 9, b);
  // The second departure waited for the first payload's serialization.
  EXPECT_GT(second - first, static_cast<double>(b) * 0.9 / 3200.0);
}

TEST(AsyncEngine, IntraNodeFasterThanInterNode) {
  const Machine m = Machine::gpc(2);
  const Communicator c(m, make_layout(m, 16, LayoutSpec{}));
  AsyncEngine a = make(c), b = make(c);
  const Usec shm = a.p2p(0, 1, 65536);
  const Usec net = b.p2p(0, 8, 65536);
  EXPECT_LT(shm, net);
}

TEST(AsyncEngine, InputValidation) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  AsyncEngine eng = make(c);
  EXPECT_THROW(eng.p2p(0, 0, 8), Error);
  EXPECT_THROW(eng.p2p(0, 5, 8), Error);
  EXPECT_THROW(eng.p2p(0, 1, -1), Error);
  EXPECT_THROW(eng.compute(0, -1.0), Error);
  EXPECT_THROW(eng.clock(9), Error);
}

TEST(AsyncCollectives, RingPipelinesBelowStageSynchronousBound) {
  // The whole point of the async model: the ring's makespan is below the
  // stage-synchronous sum (no global barrier per step), but not absurdly
  // so (>= the per-rank serial work).
  const Machine m = Machine::gpc(8);
  const int p = 64;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  const Bytes msg = 4096;

  AsyncEngine eng = make(comm);
  const Usec async = run_allgather_ring_async(eng, msg);
  EXPECT_EQ(eng.messages(), static_cast<long long>(p) * (p - 1));

  simmpi::CostConfig no_contention;
  no_contention.model_contention = false;
  Engine stage(comm, no_contention, ExecMode::Timed, msg, p);
  const Usec staged = collectives::run_allgather(
      stage,
      collectives::AllgatherOptions{collectives::AllgatherAlgo::Ring,
                                    collectives::OrderFix::None});
  EXPECT_LT(async, staged);
  EXPECT_GT(async, 0.25 * staged);
}

TEST(AsyncCollectives, RdMatchesStageSynchronousWithoutContention) {
  // Recursive doubling is globally synchronized: the async makespan must
  // land close to the stage-synchronous total when contention is off
  // (differences: send overhead and sender-side serialization).
  const Machine m = Machine::gpc(4);
  const int p = 32;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  const Bytes msg = 2048;

  AsyncEngine eng = make(comm);
  const Usec async = run_allgather_rd_async(eng, msg);

  simmpi::CostConfig no_contention;
  no_contention.model_contention = false;
  Engine stage(comm, no_contention, ExecMode::Timed, msg, p);
  const Usec staged = collectives::run_allgather(
      stage,
      collectives::AllgatherOptions{
          collectives::AllgatherAlgo::RecursiveDoubling,
          collectives::OrderFix::None});
  EXPECT_NEAR(async, staged, 0.5 * staged);
  EXPECT_GE(async, staged * 0.9);  // sync pattern cannot be much faster
}

TEST(AsyncCollectives, ReorderedCommunicatorReducesRingMakespan) {
  // The async model agrees with the paper's direction: RMH's compact ring
  // beats a cyclic placement's ring.
  const Machine m = Machine::gpc(8);
  const int p = 64;
  const Communicator cyclic(
      m, make_layout(m, p,
                     LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch}));
  core::ReorderFramework fw(m);
  const auto rc = fw.reorder(cyclic, mapping::Pattern::Ring);

  AsyncEngine before = make(cyclic);
  AsyncEngine after = make(rc.comm);
  const Bytes msg = 64 * 1024;
  EXPECT_LT(run_allgather_ring_async(after, msg),
            run_allgather_ring_async(before, msg));
}

}  // namespace
}  // namespace tarr::simmpi
