// Differential oracle for simmpi::CostModel.  The model prices a stage's
// inter-node transfers per (source node, destination node) pair: it loads
// each pair's route once with the pair's summed bytes and reads it once.
// The per-transfer model it replaced, copied below as the reference, walks
// every transfer's route twice.  Both run side by side over the same random
// stages, and every stage cost, transfer record, link and QPI load (order
// included) and stage statistic must be equal, bit for bit, on fat-trees,
// a torus, a dragonfly, deep nodes, a degraded fabric and a split one.

#include "simmpi/costmodel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/degraded.hpp"
#include "fault/fault_mask.hpp"
#include "simmpi/layout.hpp"
#include "topology/direct.hpp"
#include "topology/fattree.hpp"
#include "topology/machine.hpp"

namespace tarr::simmpi {
namespace {

using topology::Machine;
using topology::NodeShape;

// ---------------------------------------------------------------------------
// Reference: per-transfer pricing, one route walk per inter-node transfer in
// add_transfer and one more in finish_stage.

class ReferenceCostModel {
 public:
  ReferenceCostModel(const Machine& m, const CostConfig& cfg)
      : machine_(&m), cfg_(cfg) {
    link_bytes_.assign(static_cast<std::size_t>(m.network().num_links()) * 2,
                       0.0);
    qpi_bytes_.assign(static_cast<std::size_t>(m.num_nodes()) * 2, 0.0);
    socket_bytes_.assign(
        static_cast<std::size_t>(m.num_nodes()) * m.shape().sockets, 0.0);
  }

  void set_capture_details(bool on) { capture_details_ = on; }
  const CostModel::StageStats& last_stage_stats() const { return last_stats_; }
  const CostModel::StageDetail& last_stage_detail() const { return detail_; }

  void begin_stage() {}

  void add_transfer(CoreId src, CoreId dst, Bytes bytes) {
    pending_.push_back(Pending{src, dst, bytes});
    if (!cfg_.model_contention) return;

    const auto& m = *machine_;
    const NodeId na = m.node_of_core(src);
    const NodeId nb = m.node_of_core(dst);
    const double b = static_cast<double>(bytes);
    if (na == nb) {
      const SocketId sa = m.socket_of_core(src);
      const SocketId sb = m.socket_of_core(dst);
      auto touch_socket = [&](SocketId s, double load) {
        double& slot = socket_load(na, s);
        if (slot == 0.0)
          touched_sockets_.push_back(na * m.shape().sockets + s);
        slot += load;
      };
      if (sa == sb) {
        touch_socket(sa, b);  // full copy served by one memory subsystem
      } else {
        touch_socket(sa, 0.5 * b);  // read side
        touch_socket(sb, 0.5 * b);  // write side
        const int dir = sa < sb ? 0 : 1;
        if (qpi_load(na, dir) == 0.0) touched_qpi_.push_back(na * 2 + dir);
        qpi_load(na, dir) += b;
      }
      return;
    }
    m.router().walk(na, nb, [&](topology::Hop h) {
      const int idx = 2 * h.link + h.dir;
      if (link_bytes_[idx] == 0.0) touched_links_.push_back(idx);
      link_bytes_[idx] += b;
    });
  }

  Usec finish_stage() {
    const auto& m = *machine_;
    const auto& net = m.network();

    if (capture_details_) {
      detail_.transfers.clear();
      detail_.link_loads.clear();
      detail_.qpi_loads.clear();
      detail_.transfers.reserve(pending_.size());
    }

    Usec stage = 0.0;
    for (const Pending& t : pending_) {
      const NodeId na = m.node_of_core(t.src);
      const NodeId nb = m.node_of_core(t.dst);
      const double own = static_cast<double>(t.bytes);
      Usec cost;
      Usec uncontended = 0.0;
      trace::Channel channel = trace::Channel::Network;
      double contention = 1.0;
      if (na == nb) {
        const SocketId sa = m.socket_of_core(t.src);
        const SocketId sb = m.socket_of_core(t.dst);
        double bw_time = own * cfg_.beta_shm_pair;
        if (sa == sb) {
          const bool same_complex =
              m.complex_of_core(t.src) == m.complex_of_core(t.dst);
          if (same_complex) bw_time = own * cfg_.beta_shm_complex_pair;
          const double floor = bw_time;
          if (cfg_.model_contention) {
            bw_time = std::max(bw_time,
                               socket_load(na, sa) * cfg_.beta_mem_socket);
          }
          if (floor > 0.0) contention = bw_time / floor;
          channel = same_complex ? trace::Channel::SameComplex
                                 : trace::Channel::SameSocket;
          const Usec alpha =
              same_complex ? cfg_.alpha_shm_complex : cfg_.alpha_shm_socket;
          uncontended = alpha + floor;
          cost = alpha + bw_time;
        } else {
          const double floor = bw_time;
          if (cfg_.model_contention) {
            const double mem =
                std::max(socket_load(na, sa), socket_load(na, sb));
            const double qpi = qpi_load(na, sa < sb ? 0 : 1);
            bw_time = std::max({bw_time, mem * cfg_.beta_mem_socket,
                                qpi * cfg_.beta_qpi});
          }
          if (floor > 0.0) contention = bw_time / floor;
          channel = trace::Channel::CrossSocket;
          uncontended = cfg_.alpha_shm_cross + floor;
          cost = cfg_.alpha_shm_cross + bw_time;
        }
      } else {
        double bottleneck = own;
        const int hops = m.router().walk(na, nb, [&](topology::Hop h) {
          if (cfg_.model_contention)
            bottleneck = std::max(bottleneck,
                                  link_bytes_[2 * h.link + h.dir] /
                                      net.link(h.link).capacity);
        });
        if (own > 0.0) contention = bottleneck / own;
        const Usec alpha =
            cfg_.alpha_net + cfg_.alpha_hop * static_cast<double>(hops);
        uncontended = alpha + own * cfg_.beta_net;
        cost = alpha + bottleneck * cfg_.beta_net;
      }
      if (capture_details_) {
        detail_.transfers.push_back(CostModel::TransferRecord{
            t.src, t.dst, t.bytes, cost, channel, contention, uncontended});
      }
      stage = std::max(stage, cost);
    }

    last_stats_ = CostModel::StageStats{};
    last_stats_.transfers = static_cast<int>(pending_.size());
    for (int idx : touched_links_) {
      const auto& link = net.link(idx / 2);
      last_stats_.max_link_bytes = std::max(
          last_stats_.max_link_bytes, link_bytes_[idx] / link.capacity);
    }
    for (int idx : touched_qpi_)
      last_stats_.max_qpi_bytes =
          std::max(last_stats_.max_qpi_bytes, qpi_bytes_[idx]);

    if (capture_details_) {
      detail_.link_loads.reserve(touched_links_.size());
      for (int idx : touched_links_) {
        detail_.link_loads.push_back(CostModel::LinkLoad{
            idx / 2, idx % 2, link_bytes_[idx],
            link_bytes_[idx] / net.link(idx / 2).capacity});
      }
      detail_.qpi_loads.reserve(touched_qpi_.size());
      for (int idx : touched_qpi_)
        detail_.qpi_loads.push_back(
            CostModel::QpiLoad{idx / 2, idx % 2, qpi_bytes_[idx]});
    }

    pending_.clear();
    for (int idx : touched_links_) link_bytes_[idx] = 0.0;
    for (int idx : touched_qpi_) qpi_bytes_[idx] = 0.0;
    for (int idx : touched_sockets_) socket_bytes_[idx] = 0.0;
    touched_links_.clear();
    touched_qpi_.clear();
    touched_sockets_.clear();
    return stage;
  }

 private:
  struct Pending {
    CoreId src;
    CoreId dst;
    Bytes bytes;
  };

  double& qpi_load(NodeId n, int dir) {
    return qpi_bytes_[static_cast<std::size_t>(n) * 2 + dir];
  }
  double& socket_load(NodeId n, SocketId s) {
    return socket_bytes_[static_cast<std::size_t>(n) *
                             machine_->shape().sockets +
                         s];
  }

  const Machine* machine_;
  CostConfig cfg_;
  std::vector<Pending> pending_;
  std::vector<double> link_bytes_;
  std::vector<double> qpi_bytes_;
  std::vector<double> socket_bytes_;
  std::vector<int> touched_links_;
  std::vector<int> touched_qpi_;
  std::vector<int> touched_sockets_;
  CostModel::StageStats last_stats_;
  CostModel::StageDetail detail_;
  bool capture_details_ = false;
};

// ---------------------------------------------------------------------------
// Random stages over the cores of a layout.

struct Transfer {
  CoreId src;
  CoreId dst;
  Bytes bytes;
};
using Stage = std::vector<Transfer>;

Bytes draw_bytes(Rng& rng) {
  // Byte counts >= 1, the engine's domain: from one byte to a few MB, with
  // odd counts so that cross-socket half loads are not whole numbers.
  static constexpr Bytes kSizes[] = {1, 7, 64, 1000, 4096, 65536, 1 << 20};
  if (rng.next_below(4) == 0)
    return 1 + static_cast<Bytes>(rng.next_below(4u << 20));
  return kSizes[rng.next_below(std::size(kSizes))];
}

CoreId draw_other(Rng& rng, const std::vector<CoreId>& cores, CoreId not_this) {
  for (;;) {
    const CoreId c = cores[rng.next_below(cores.size())];
    if (c != not_this) return c;
  }
}

/// Uniform random transfers; some repeated k times in a row, as an engine
/// with transient faults submits a transfer's retries.
Stage random_stage(Rng& rng, const std::vector<CoreId>& cores, int n) {
  Stage s;
  while (static_cast<int>(s.size()) < n) {
    const CoreId src = cores[rng.next_below(cores.size())];
    const Transfer t{src, draw_other(rng, cores, src), draw_bytes(rng)};
    const int repeats =
        rng.next_below(4) == 0 ? 2 + static_cast<int>(rng.next_below(3)) : 1;
    for (int k = 0; k < repeats; ++k) s.push_back(t);
  }
  return s;
}

/// Sources cycle through a few destinations, so each source node's pairs
/// interleave and its slot keeps missing pairs it has already opened.
Stage interleaved_stage(Rng& rng, const std::vector<CoreId>& cores) {
  const CoreId to[3] = {cores[rng.next_below(cores.size())],
                        cores[rng.next_below(cores.size())],
                        cores[rng.next_below(cores.size())]};
  Stage s;
  for (int k = 0; k < 48; ++k) {
    const CoreId src = cores[rng.next_below(cores.size())];
    for (int j : {0, 1, 0, 2, 1})
      if (to[j] != src) s.push_back(Transfer{src, to[j], draw_bytes(rng)});
  }
  return s;
}

/// A collective-shaped stage: rank r sends to rank r XOR d (recursive
/// doubling) or r + d (ring-like shift), every rank the same byte count, so
/// many core pairs share one node pair.
Stage collective_stage(Rng& rng, const std::vector<CoreId>& cores) {
  const int p = static_cast<int>(cores.size());
  const int d = 1 + static_cast<int>(rng.next_below(p - 1));
  const bool xor_partner = rng.next_below(2) == 0;
  const Bytes bytes = draw_bytes(rng);
  Stage s;
  for (int r = 0; r < p; ++r) {
    const int partner = xor_partner ? (r ^ d) : (r + d) % p;
    if (partner >= p || partner == r) continue;
    s.push_back(Transfer{cores[r], cores[partner], bytes});
  }
  return s;
}

// ---------------------------------------------------------------------------
// Lockstep comparison.

void expect_same_stats(const CostModel::StageStats& got,
                       const CostModel::StageStats& want) {
  EXPECT_EQ(got.transfers, want.transfers);
  EXPECT_EQ(got.max_link_bytes, want.max_link_bytes);
  EXPECT_EQ(got.max_qpi_bytes, want.max_qpi_bytes);
}

void expect_same_detail(const CostModel::StageDetail& got,
                        const CostModel::StageDetail& want) {
  ASSERT_EQ(got.transfers.size(), want.transfers.size());
  for (std::size_t i = 0; i < got.transfers.size(); ++i) {
    SCOPED_TRACE("transfer " + std::to_string(i));
    const auto& g = got.transfers[i];
    const auto& w = want.transfers[i];
    EXPECT_EQ(g.src, w.src);
    EXPECT_EQ(g.dst, w.dst);
    EXPECT_EQ(g.bytes, w.bytes);
    EXPECT_EQ(g.cost, w.cost);
    EXPECT_EQ(g.channel, w.channel);
    EXPECT_EQ(g.contention, w.contention);
    EXPECT_EQ(g.uncontended, w.uncontended);
  }
  ASSERT_EQ(got.link_loads.size(), want.link_loads.size());
  for (std::size_t i = 0; i < got.link_loads.size(); ++i) {
    SCOPED_TRACE("link load " + std::to_string(i));
    EXPECT_EQ(got.link_loads[i].link, want.link_loads[i].link);
    EXPECT_EQ(got.link_loads[i].dir, want.link_loads[i].dir);
    EXPECT_EQ(got.link_loads[i].bytes, want.link_loads[i].bytes);
    EXPECT_EQ(got.link_loads[i].relative, want.link_loads[i].relative);
  }
  ASSERT_EQ(got.qpi_loads.size(), want.qpi_loads.size());
  for (std::size_t i = 0; i < got.qpi_loads.size(); ++i) {
    SCOPED_TRACE("qpi load " + std::to_string(i));
    EXPECT_EQ(got.qpi_loads[i].node, want.qpi_loads[i].node);
    EXPECT_EQ(got.qpi_loads[i].dir, want.qpi_loads[i].dir);
    EXPECT_EQ(got.qpi_loads[i].bytes, want.qpi_loads[i].bytes);
  }
}

/// Prices `stages` in order on one CostModel and one reference, with detail
/// capture on for every other stage, and compares everything each exposes.
void expect_same_pricing(const Machine& m, const CostConfig& cfg,
                         const std::vector<Stage>& stages) {
  CostModel model(m, cfg);
  ReferenceCostModel ref(m, cfg);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    SCOPED_TRACE("stage " + std::to_string(i) + " of " +
                 std::to_string(stages.size()) + ", " +
                 std::to_string(stages[i].size()) + " transfers");
    const bool capture = i % 2 == 0;
    model.set_capture_details(capture);
    ref.set_capture_details(capture);
    model.begin_stage();
    ref.begin_stage();
    for (const Transfer& t : stages[i]) {
      model.add_transfer(t.src, t.dst, t.bytes);
      ref.add_transfer(t.src, t.dst, t.bytes);
    }
    EXPECT_EQ(model.finish_stage(), ref.finish_stage());
    expect_same_stats(model.last_stage_stats(), ref.last_stage_stats());
    if (capture)
      expect_same_detail(model.last_stage_detail(), ref.last_stage_detail());
    if (::testing::Test::HasFailure()) return;
  }
}

/// Every stage shape over `cores`, contention on and off.
void expect_same_pricing_on_cores(const Machine& m,
                                  const std::vector<CoreId>& cores,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Stage> stages;
  const int p = static_cast<int>(cores.size());
  for (int n : {1, 2, 5, 40, 4 * p})
    stages.push_back(random_stage(rng, cores, std::min(n, 2048)));
  for (int k = 0; k < 3; ++k) stages.push_back(interleaved_stage(rng, cores));
  for (int k = 0; k < 4; ++k) stages.push_back(collective_stage(rng, cores));
  for (bool contention : {true, false}) {
    SCOPED_TRACE(contention ? "contention on" : "contention off");
    CostConfig cfg;
    cfg.model_contention = contention;
    expect_same_pricing(m, cfg, stages);
  }
}

void expect_same_pricing_on_layouts(const Machine& m, std::uint64_t seed) {
  for (NodeOrder order : {NodeOrder::Block, NodeOrder::Cyclic}) {
    SCOPED_TRACE(order == NodeOrder::Block ? "block cores" : "cyclic cores");
    // Not a whole number of nodes, so some nodes are only partly used.
    const int p = std::max(2, m.total_cores() - m.cores_per_node() + 3);
    expect_same_pricing_on_cores(
        m, make_layout(m, p, LayoutSpec{order, SocketOrder::Scatter}), seed);
  }
}

TEST(CostOracle, GpcTrees) {
  for (int nodes : {2, 31, 64, 512}) {
    SCOPED_TRACE("gpc " + std::to_string(nodes));
    expect_same_pricing_on_layouts(Machine::gpc(nodes), 1000 + nodes);
  }
}

TEST(CostOracle, DirectNetworks) {
  {
    SCOPED_TRACE("torus 4x4x4");
    expect_same_pricing_on_layouts(
        Machine(NodeShape{}, topology::build_torus_network(4, 4, 4)), 7);
  }
  {
    SCOPED_TRACE("dragonfly 72");
    expect_same_pricing_on_layouts(
        Machine(NodeShape{}, topology::build_dragonfly_network(
                                 72, topology::DragonflyConfig{})),
        8);
  }
}

TEST(CostOracle, DeepNodes) {
  // Two sockets of 16 cores in L3 complexes of 4: same-complex,
  // cross-complex and cross-socket copies all share the node's loads.
  expect_same_pricing_on_layouts(
      Machine(NodeShape{2, 16, 4}, topology::build_gpc_network(12)), 9);
}

TEST(CostOracle, DegradedGpc) {
  // Random inter-switch links cut and others thinned: routes detour and
  // links differ in capacity.
  const Machine base = Machine::gpc(64);
  const auto& net = base.network();
  Rng rng(11);
  fault::FaultMask mask;
  std::vector<LinkId> switch_links;
  for (LinkId l = 0; l < net.num_links(); ++l) {
    const auto& link = net.link(l);
    if (net.vertex(link.a).kind != topology::VertexKind::Host &&
        net.vertex(link.b).kind != topology::VertexKind::Host)
      switch_links.push_back(l);
  }
  ASSERT_GT(switch_links.size(), 16u);
  for (int k = 0; k < 16; ++k) {
    const std::size_t i = rng.next_below(switch_links.size());
    const LinkId l = switch_links[i];
    switch_links.erase(switch_links.begin() + static_cast<std::ptrdiff_t>(i));
    if (k < 8)
      mask.fail_link(l);
    else if (net.link(l).capacity > 1)
      mask.degrade_link(l, 1);
  }
  const fault::DegradedTopology topo(base, mask);
  ASSERT_TRUE(topo.machine().router().fully_connected());
  expect_same_pricing_on_layouts(topo.machine(), 12);
}

TEST(CostOracle, SplitPairThrowsFromTheSameCall) {
  // Every uplink of leaf 0 cut: its 30 hosts become their own component.
  topology::SwitchGraph g = topology::build_gpc_network(64);
  const NetVertexId host0 = g.host_vertex(0);
  const NetVertexId leaf0 = g.other_end(g.incident(host0).front(), host0);
  std::vector<LinkId> uplinks;
  for (LinkId l : g.incident(leaf0))
    if (g.vertex(g.other_end(l, leaf0)).kind != topology::VertexKind::Host)
      uplinks.push_back(l);
  const Machine m(NodeShape{}, g.with_failed_links(uplinks),
                  topology::Router::HostPolicy::AllowUnreachable);
  ASSERT_FALSE(m.router().reachable(0, 40));
  const int cpn = m.cores_per_node();

  // Stages inside each component still price identically.
  std::vector<CoreId> left, right;
  for (CoreId c = 0; c < m.total_cores(); ++c)
    (c / cpn < 30 ? left : right).push_back(c);
  expect_same_pricing_on_cores(m, left, 21);
  expect_same_pricing_on_cores(m, right, 22);

  // A split pair after reachable ones, in a pair the source already opened.
  const Stage stage = {{0, 8, 64}, {0, 9, 64}, {1, 40 * cpn, 64},
                       {2, 41 * cpn, 64}, {3, 4, 64}};
  for (bool contention : {true, false}) {
    SCOPED_TRACE(contention ? "contention on" : "contention off");
    CostConfig cfg;
    cfg.model_contention = contention;
    CostModel model(m, cfg);
    ReferenceCostModel ref(m, cfg);
    model.begin_stage();
    ref.begin_stage();
    const auto submit = [&](auto& cm) {
      for (const Transfer& t : stage) {
        try {
          cm.add_transfer(t.src, t.dst, t.bytes);
        } catch (const topology::PartitionedError&) {
          return std::string("add_transfer");
        }
      }
      try {
        cm.finish_stage();
      } catch (const topology::PartitionedError& e) {
        EXPECT_EQ(e.info().components.size(), 2u);
        return std::string("finish_stage");
      }
      return std::string("nothing");
    };
    const std::string want = submit(ref);
    EXPECT_EQ(want, contention ? "add_transfer" : "finish_stage");
    EXPECT_EQ(submit(model), want);
  }
}

}  // namespace
}  // namespace tarr::simmpi
