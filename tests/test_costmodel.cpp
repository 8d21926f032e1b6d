#include "simmpi/costmodel.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "prof/obs.hpp"
#include "prof/profiler.hpp"

namespace tarr::simmpi {
namespace {

using topology::Machine;

Usec one_transfer(CostModel& cm, CoreId a, CoreId b, Bytes bytes) {
  cm.begin_stage();
  cm.add_transfer(a, b, bytes);
  return cm.finish_stage();
}

TEST(CostModel, ChannelLatencyOrdering) {
  // Zero-byte transfers expose pure channel latencies:
  // same-socket < cross-socket < inter-node.
  const Machine m = Machine::gpc(2);
  CostModel cm(m, CostConfig{});
  const Usec same = one_transfer(cm, 0, 1, 0);
  const Usec cross = one_transfer(cm, 0, 4, 0);
  const Usec inter = one_transfer(cm, 0, 8, 0);
  EXPECT_LT(same, cross);
  EXPECT_LT(cross, inter);
}

TEST(CostModel, CostGrowsWithSize) {
  const Machine m = Machine::gpc(2);
  CostModel cm(m, CostConfig{});
  for (CoreId dst : {1, 4, 8}) {
    Usec prev = one_transfer(cm, 0, dst, 1);
    for (Bytes b : {1024, 65536, 1 << 20}) {
      const Usec t = one_transfer(cm, 0, dst, b);
      EXPECT_GT(t, prev);
      prev = t;
    }
  }
}

TEST(CostModel, NetworkCostGrowsWithHops) {
  const Machine m = Machine::gpc(240);  // several leaves and line groups
  CostModel cm(m, CostConfig{});
  const int cpn = m.cores_per_node();
  const Usec same_leaf = one_transfer(cm, 0, 1 * cpn, 4096);
  const Usec same_line = one_transfer(cm, 0, 30 * cpn, 4096);
  const Usec cross_line = one_transfer(cm, 0, 180 * cpn, 4096);
  EXPECT_LT(same_leaf, same_line);
  EXPECT_LT(same_line, cross_line);
}

TEST(CostModel, LinkContentionSlowsTransfers) {
  // Many nodes of one leaf all sending to another leaf saturate the 6
  // shared uplink cables; a lone transfer does not.
  const Machine m = Machine::gpc(60);
  CostModel cm(m, CostConfig{});
  const int cpn = m.cores_per_node();
  const Bytes b = 1 << 20;

  const Usec lone = one_transfer(cm, 0, 30 * cpn, b);

  cm.begin_stage();
  for (int n = 0; n < 30; ++n)
    cm.add_transfer(m.core_id(n, 0), m.core_id(30 + n, 0), b);
  const Usec contended = cm.finish_stage();
  EXPECT_GT(contended, 2.0 * lone);
}

TEST(CostModel, HostLinkSerializesNodeTraffic) {
  // All 8 ranks of one node sending off-node share the single host link.
  const Machine m = Machine::gpc(2);
  CostModel cm(m, CostConfig{});
  const Bytes b = 1 << 20;
  const Usec lone = one_transfer(cm, 0, 8, b);
  cm.begin_stage();
  for (int k = 0; k < 8; ++k) cm.add_transfer(k, 8 + k, b);
  const Usec eight = cm.finish_stage();
  EXPECT_GT(eight, 7.0 * lone - 1.0);
}

TEST(CostModel, QpiContentionOnlyAcrossSockets) {
  const Machine m = Machine::gpc(1);
  CostConfig cfg;
  CostModel cm(m, cfg);
  const Bytes b = 1 << 22;
  // Four concurrent cross-socket transfers, same direction.
  cm.begin_stage();
  for (int k = 0; k < 4; ++k) cm.add_transfer(k, 4 + k, b);
  const Usec cross4 = cm.finish_stage();
  const Usec cross1 = one_transfer(cm, 0, 4, b);
  EXPECT_GT(cross4, 2.0 * cross1);
}

TEST(CostModel, SocketMemoryContention) {
  const Machine m = Machine::gpc(1);
  CostModel cm(m, CostConfig{});
  const Bytes b = 1 << 22;
  const Usec one = one_transfer(cm, 0, 1, b);
  cm.begin_stage();
  cm.add_transfer(0, 1, b);
  cm.add_transfer(2, 3, b);  // same socket pair
  const Usec two = cm.finish_stage();
  EXPECT_GT(two, 1.5 * one);
}

TEST(CostModel, IsolatedCrossAndSameSocketComparable) {
  // Large isolated copies are memory-bound on the paper's machine: the
  // bandwidth term must match within the latency difference.
  const Machine m = Machine::gpc(1);
  CostConfig cfg;
  CostModel cm(m, cfg);
  const Bytes b = 1 << 22;
  const Usec same = one_transfer(cm, 0, 1, b);
  const Usec cross = one_transfer(cm, 0, 4, b);
  EXPECT_NEAR(same - cfg.alpha_shm_socket, cross - cfg.alpha_shm_cross,
              1e-9);
}

TEST(CostModel, NoContentionModeIgnoresSharing) {
  const Machine m = Machine::gpc(60);
  CostConfig cfg;
  cfg.model_contention = false;
  CostModel cm(m, cfg);
  const int cpn = m.cores_per_node();
  const Bytes b = 1 << 20;
  const Usec lone = one_transfer(cm, 0, 30 * cpn, b);
  cm.begin_stage();
  for (int n = 0; n < 30; ++n)
    cm.add_transfer(m.core_id(n, 0), m.core_id(30 + n, 0), b);
  const Usec many = cm.finish_stage();
  EXPECT_NEAR(many, lone, lone * 0.05);
}

TEST(CostModel, StateResetsBetweenStages) {
  const Machine m = Machine::gpc(2);
  CostModel cm(m, CostConfig{});
  const Bytes b = 1 << 20;
  cm.begin_stage();
  for (int k = 0; k < 8; ++k) cm.add_transfer(k, 8 + k, b);
  cm.finish_stage();
  // A fresh stage must not see the previous loads.
  const Usec lone_after = one_transfer(cm, 0, 8, b);
  CostModel fresh(m, CostConfig{});
  EXPECT_DOUBLE_EQ(lone_after, one_transfer(fresh, 0, 8, b));
}

TEST(CostModel, LocalCopyCost) {
  const Machine m = Machine::gpc(1);
  CostConfig cfg;
  CostModel cm(m, cfg);
  EXPECT_EQ(cm.local_copy_cost(0), 0.0);
  EXPECT_DOUBLE_EQ(cm.local_copy_cost(6500),
                   cfg.alpha_mem + 6500 * cfg.beta_mem);
}

TEST(CostModel, DetailCaptureOffByDefaultAndCostNeutral) {
  const Machine m = Machine::gpc(2);
  CostModel plain(m, CostConfig{});
  CostModel detailed(m, CostConfig{});
  detailed.set_capture_details(true);
  EXPECT_FALSE(plain.capture_details());

  const Bytes b = 1 << 16;
  const Usec t_plain = one_transfer(plain, 0, 8, b);
  const Usec t_detail = one_transfer(detailed, 0, 8, b);
  EXPECT_EQ(t_plain, t_detail);  // capture must not perturb pricing

  EXPECT_TRUE(plain.last_stage_detail().transfers.empty());
  EXPECT_TRUE(plain.last_stage_detail().link_loads.empty());
  ASSERT_EQ(detailed.last_stage_detail().transfers.size(), 1u);
  EXPECT_FALSE(detailed.last_stage_detail().link_loads.empty());
}

TEST(CostModel, DetailRecordsChannelsAndCosts) {
  const Machine m = Machine::gpc(2);
  CostModel cm(m, CostConfig{});
  cm.set_capture_details(true);
  const int cpn = m.cores_per_node();
  const Bytes b = 1 << 16;

  cm.begin_stage();
  cm.add_transfer(0, 1, b);        // same socket
  cm.add_transfer(0, cpn / 2, b);  // cross socket (second complex)
  cm.add_transfer(0, cpn, b);      // network (second node)
  const Usec stage = cm.finish_stage();

  const auto& d = cm.last_stage_detail();
  ASSERT_EQ(d.transfers.size(), 3u);
  // Submission order is preserved.
  EXPECT_EQ(d.transfers[0].dst, 1);
  EXPECT_EQ(d.transfers[1].dst, cpn / 2);
  EXPECT_EQ(d.transfers[2].dst, cpn);
  EXPECT_NE(d.transfers[0].channel, trace::Channel::Network);
  EXPECT_EQ(d.transfers[2].channel, trace::Channel::Network);
  for (const auto& tr : d.transfers) {
    EXPECT_EQ(tr.src, 0);
    EXPECT_EQ(tr.bytes, b);
    EXPECT_GT(tr.cost, 0.0);
    EXPECT_LE(tr.cost, stage + 1e-9);  // stage = max over transfers
    EXPECT_GE(tr.contention, 1.0 - 1e-12);
  }
  // The network transfer loaded at least one directed cable, with a sane
  // relative (bytes/capacity) heat.
  ASSERT_FALSE(d.link_loads.empty());
  for (const auto& l : d.link_loads) {
    EXPECT_GT(l.bytes, 0.0);
    EXPECT_GT(l.relative, 0.0);
    EXPECT_TRUE(l.dir == 0 || l.dir == 1);
  }
}

TEST(CostModel, DetailContentionReflectsOversubscription) {
  // Many flows over one uplink: the shared-cable slowdown must show up as
  // contention > 1 on the recorded network transfers.
  const Machine m = Machine::gpc(60);
  CostModel cm(m, CostConfig{});
  cm.set_capture_details(true);
  const int cpn = m.cores_per_node();
  const Bytes b = 1 << 20;

  cm.begin_stage();
  for (int k = 0; k < cpn; ++k)
    cm.add_transfer(m.core_id(0, k), m.core_id(30, k), b);
  cm.finish_stage();

  const auto& d = cm.last_stage_detail();
  ASSERT_EQ(d.transfers.size(), static_cast<std::size_t>(cpn));
  double max_contention = 0.0;
  for (const auto& tr : d.transfers)
    max_contention = std::max(max_contention, tr.contention);
  EXPECT_GT(max_contention, 1.0);
}

TEST(CostModel, DetailResetsEachStage) {
  const Machine m = Machine::gpc(2);
  CostModel cm(m, CostConfig{});
  cm.set_capture_details(true);
  one_transfer(cm, 0, 8, 4096);
  EXPECT_EQ(cm.last_stage_detail().transfers.size(), 1u);
  cm.begin_stage();
  cm.add_transfer(0, 1, 64);
  cm.add_transfer(2, 3, 64);
  cm.finish_stage();
  EXPECT_EQ(cm.last_stage_detail().transfers.size(), 2u);
  // Intra-node stage: no cables touched.
  EXPECT_TRUE(cm.last_stage_detail().link_loads.empty());
}

TEST(CostModel, ZeroByteTransferDoesNotListItsResourcesTwice) {
  // A zero-byte transfer touches its links and QPI direction without
  // loading them; a later transfer over the same resources must not list
  // them a second time.
  const Machine m = Machine::gpc(2);
  CostModel cm(m, CostConfig{});
  cm.set_capture_details(true);

  cm.begin_stage();
  cm.add_transfer(0, 8, 0);     // node 0 -> node 1, no bytes
  cm.add_transfer(1, 9, 4096);  // the same route
  cm.finish_stage();
  const auto& links = cm.last_stage_detail().link_loads;
  ASSERT_EQ(links.size(), 2u);  // host 0 -> leaf, leaf -> host 1
  EXPECT_NE(links[0].link, links[1].link);
  for (const auto& l : links) EXPECT_EQ(l.bytes, 4096.0);

  cm.begin_stage();
  cm.add_transfer(0, 4, 0);     // socket 0 -> socket 1, no bytes
  cm.add_transfer(1, 5, 4096);  // the same QPI direction
  cm.finish_stage();
  const auto& qpi = cm.last_stage_detail().qpi_loads;
  ASSERT_EQ(qpi.size(), 1u);
  EXPECT_EQ(qpi[0].node, 0);
  EXPECT_EQ(qpi[0].dir, 0);
  EXPECT_EQ(qpi[0].bytes, 4096.0);
}

TEST(CostModel, WalksOneRoutePerNodePair) {
  // Eight core pairs between nodes 0 and 1 share one route; node 0 -> 2 is a
  // second one, and an intra-node copy walks none.
  const Machine m = Machine::gpc(3);
  CostModel cm(m, CostConfig{});
  prof::Profiler profiler;
  {
    obs::Install ambient(&profiler);
    cm.begin_stage();
    for (CoreId k = 0; k < 8; ++k) cm.add_transfer(k, 8 + k, 4096);
    cm.add_transfer(0, 16, 4096);
    cm.add_transfer(1, 2, 4096);
    cm.finish_stage();
  }
  const prof::Profile profile = profiler.snapshot();
  EXPECT_EQ(profile.counter_total("cost.transfers_priced"), 10.0);
  EXPECT_EQ(profile.counter_total("cost.routes_walked"), 2.0);
}

TEST(CostModel, ApiMisuseThrows) {
  const Machine m = Machine::gpc(1);
  CostModel cm(m, CostConfig{});
  EXPECT_THROW(cm.add_transfer(0, 1, 8), Error);   // no open stage
  EXPECT_THROW(cm.finish_stage(), Error);          // no open stage
  cm.begin_stage();
  EXPECT_THROW(cm.begin_stage(), Error);           // double open
  EXPECT_THROW(cm.add_transfer(0, 0, 8), Error);   // self transfer
  EXPECT_THROW(cm.add_transfer(0, 1, -1), Error);  // negative size
  cm.finish_stage();
}

}  // namespace
}  // namespace tarr::simmpi
