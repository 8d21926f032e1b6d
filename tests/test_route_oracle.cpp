// Differential oracle for topology::Router: every route its per-destination
// forwarding tables produce must equal the route of the all-pairs builder it
// replaced (kept below as the reference), hop for hop, with each hop's
// direction matching the traversal, across fat-trees, tori, a dragonfly, a
// partitioned fabric, a congested fabric and a moved Machine.

#include "topology/routing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "fault/degraded.hpp"
#include "probe/congestion.hpp"
#include "topology/direct.hpp"
#include "topology/fattree.hpp"
#include "topology/machine.hpp"

namespace tarr::topology {
namespace {

// ---------------------------------------------------------------------------
// Reference: the all-pairs builder (one stored path per ordered host pair).

std::uint32_t reference_hash(NodeId dst, NetVertexId at) {
  std::uint32_t h = static_cast<std::uint32_t>(dst) * 0x9e3779b9u;
  h ^= static_cast<std::uint32_t>(at) * 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

struct ReferenceRoutes {
  /// paths[src * hosts + dst]; empty for src == dst and for split pairs.
  std::vector<std::vector<LinkId>> paths;
  std::vector<bool> routable;
};

ReferenceRoutes reference_routes(const SwitchGraph& g) {
  ReferenceRoutes out;
  const int H = g.num_hosts();
  const int V = g.num_vertices();
  const Partitioned parts = host_components(g);
  std::vector<int> component_of(H, 0);
  for (std::size_t c = 0; c < parts.components.size(); ++c)
    for (NodeId n : parts.components[c]) component_of[n] = static_cast<int>(c);
  out.paths.resize(static_cast<std::size_t>(H) * H);
  out.routable.assign(static_cast<std::size_t>(H) * H, false);

  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> level(V);
  std::deque<NetVertexId> queue;
  for (NodeId dst = 0; dst < H; ++dst) {
    std::fill(level.begin(), level.end(), kUnreached);
    const NetVertexId target = g.host_vertex(dst);
    level[target] = 0;
    queue.clear();
    queue.push_back(target);
    while (!queue.empty()) {
      const NetVertexId u = queue.front();
      queue.pop_front();
      for (LinkId l : g.incident(u)) {
        const NetVertexId w = g.other_end(l, u);
        if (level[w] == kUnreached) {
          level[w] = level[u] + 1;
          queue.push_back(w);
        }
      }
    }
    for (NodeId src = 0; src < H; ++src) {
      const std::size_t idx = static_cast<std::size_t>(src) * H + dst;
      if (src != dst && component_of[src] != component_of[dst]) continue;
      out.routable[idx] = true;
      NetVertexId at = g.host_vertex(src);
      auto& path = out.paths[idx];
      while (at != target) {
        int candidates = 0;
        for (LinkId l : g.incident(at))
          if (level[g.other_end(l, at)] == level[at] - 1) ++candidates;
        int pick = static_cast<int>(reference_hash(dst, at) %
                                    static_cast<std::uint32_t>(candidates));
        LinkId chosen = -1;
        for (LinkId l : g.incident(at)) {
          if (level[g.other_end(l, at)] == level[at] - 1 && pick-- == 0) {
            chosen = l;
            break;
          }
        }
        path.push_back(chosen);
        at = g.other_end(chosen, at);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

/// For every ordered host pair: the same links as the reference, each hop's
/// dir agreeing with a walk from host(src), the same hop count from walk()
/// and hops(), and PartitionedError on exactly the reference's split pairs.
void expect_matches_reference(const SwitchGraph& g, const Router& r) {
  const ReferenceRoutes ref = reference_routes(g);
  const int H = g.num_hosts();
  for (NodeId src = 0; src < H; ++src) {
    for (NodeId dst = 0; dst < H; ++dst) {
      const std::size_t idx = static_cast<std::size_t>(src) * H + dst;
      const auto pair = [&] {
        return std::to_string(src) + " -> " + std::to_string(dst);
      };
      if (!ref.routable[idx]) {
        ASSERT_FALSE(r.reachable(src, dst)) << pair();
        ASSERT_THROW(r.walk(src, dst, [](Hop) {}), PartitionedError) << pair();
        ASSERT_THROW(r.hops(src, dst), PartitionedError) << pair();
        continue;
      }
      std::vector<LinkId> links;
      int wrong_dirs = 0;
      NetVertexId at = g.host_vertex(src);
      const int n = r.walk(src, dst, [&](Hop h) {
        links.push_back(h.link);
        if (h.dir != (g.link(h.link).a == at ? 0 : 1)) ++wrong_dirs;
        at = g.other_end(h.link, at);
      });
      ASSERT_EQ(links, ref.paths[idx]) << pair();
      ASSERT_EQ(wrong_dirs, 0) << pair();
      ASSERT_EQ(n, static_cast<int>(ref.paths[idx].size())) << pair();
      ASSERT_EQ(r.hops(src, dst), n) << pair();
    }
  }
}

void expect_matches_reference(const SwitchGraph& g) {
  expect_matches_reference(g, Router(g));
}

TEST(RouteOracle, GpcTrees) {
  for (int nodes : {2, 31, 90, 512}) {
    SCOPED_TRACE("gpc " + std::to_string(nodes));
    expect_matches_reference(build_gpc_network(nodes));
  }
}

TEST(RouteOracle, TwoLevelFatTreeAndSingleSwitch) {
  expect_matches_reference(build_two_level_fattree(16, 4, 3));
  expect_matches_reference(build_single_switch_network(4));
}

TEST(RouteOracle, DirectNetworks) {
  expect_matches_reference(build_torus_network(4, 4, 1));
  expect_matches_reference(build_torus_network(3, 3, 3));
  expect_matches_reference(build_dragonfly_network(72));
}

TEST(RouteOracle, PartitionedGpcSplitsTheSamePairs) {
  // Cut every uplink of leaf 0: its 30 hosts become their own component.
  const SwitchGraph g = build_gpc_network(64);
  const NetVertexId host0 = g.host_vertex(0);
  const NetVertexId leaf0 = g.other_end(g.incident(host0).front(), host0);
  std::vector<LinkId> uplinks;
  for (LinkId l : g.incident(leaf0))
    if (g.vertex(g.other_end(l, leaf0)).kind != VertexKind::Host)
      uplinks.push_back(l);
  ASSERT_FALSE(uplinks.empty());
  const SwitchGraph cut = g.with_failed_links(uplinks);
  const Router r(cut, Router::HostPolicy::AllowUnreachable);
  ASSERT_EQ(r.partition().components.size(), 2u);
  expect_matches_reference(cut, r);
}

TEST(RouteOracle, CongestedDegradedTopology) {
  const Machine base = Machine::gpc(90);
  const fault::DegradedTopology topo(
      base,
      probe::congestion_mask(base.network(), probe::CongestionConfig{}, 0));
  ASSERT_GT(topo.mask().degraded_links().size(), 0u);
  expect_matches_reference(topo.machine().network(), topo.machine().router());
}

TEST(RouteOracle, MovedMachineRoutesWithoutItsOriginalGraph) {
  std::optional<Machine> m;
  m.emplace(Machine::gpc(64));
  expect_matches_reference(m->network(), m->router());
}

/// FNV-1a over every GPC 512 route: for each ordered pair (src-major), the
/// hop count, then each link id, each as 4 little-endian bytes.  The constant
/// was recorded from the all-pairs Router the forwarding tables replaced.
TEST(RouteOracle, Gpc512RoutesMatchTheAllPairsDigest) {
  const Router r(build_gpc_network(512));
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&h](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (NodeId src = 0; src < 512; ++src) {
    for (NodeId dst = 0; dst < 512; ++dst) {
      std::vector<LinkId> links;
      r.walk(src, dst, [&](Hop hop) { links.push_back(hop.link); });
      feed(static_cast<std::uint32_t>(links.size()));
      for (LinkId l : links) feed(static_cast<std::uint32_t>(l));
    }
  }
  EXPECT_EQ(h, 0xa4f5402c744c3f7dull);
}

}  // namespace
}  // namespace tarr::topology
