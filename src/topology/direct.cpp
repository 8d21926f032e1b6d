#include "topology/direct.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::topology {

SwitchGraph build_torus_network(int x, int y, int z) {
  prof::ProfScope pscope("network-build");
  TARR_REQUIRE(x >= 1 && y >= 1 && z >= 1,
               "build_torus_network: dimensions must be >= 1");
  SwitchGraph g;
  const int n = x * y * z;
  std::vector<NetVertexId> router(n);
  auto id = [&](int i, int j, int k) { return (i * y + j) * z + k; };
  for (int i = 0; i < x; ++i)
    for (int j = 0; j < y; ++j)
      for (int k = 0; k < z; ++k) {
        std::string name = "r";
        name += std::to_string(i) + "." + std::to_string(j) + "." +
                std::to_string(k);
        router[id(i, j, k)] = g.add_vertex(VertexKind::Switch, std::move(name));
      }

  // Wrap-around neighbor links; a dimension of size 2 gets one link, size 1
  // gets none.
  auto link_dim = [&](int size, auto&& neighbor_of) {
    if (size < 2) return;
    for (int a = 0; a < (size == 2 ? 1 : size); ++a) neighbor_of(a);
  };
  for (int i = 0; i < x; ++i) {
    for (int j = 0; j < y; ++j) {
      link_dim(z, [&](int k) {
        g.add_link(router[id(i, j, k)], router[id(i, j, (k + 1) % z)]);
      });
    }
  }
  for (int i = 0; i < x; ++i) {
    for (int k = 0; k < z; ++k) {
      link_dim(y, [&](int j) {
        g.add_link(router[id(i, j, k)], router[id(i, (j + 1) % y, k)]);
      });
    }
  }
  for (int j = 0; j < y; ++j) {
    for (int k = 0; k < z; ++k) {
      link_dim(x, [&](int i) {
        g.add_link(router[id(i, j, k)], router[id((i + 1) % x, j, k)]);
      });
    }
  }

  for (NodeId node = 0; node < n; ++node) {
    const NetVertexId host =
        g.add_vertex(VertexKind::Host, "node" + std::to_string(node), node);
    g.add_link(host, router[node]);
  }
  return g;
}

SwitchGraph build_dragonfly_network(int num_nodes,
                                    const DragonflyConfig& cfg) {
  prof::ProfScope pscope("network-build");
  const int capacity =
      cfg.groups * cfg.routers_per_group * cfg.hosts_per_router;
  TARR_REQUIRE(num_nodes >= 1 && num_nodes <= capacity,
               "build_dragonfly_network: node count out of range");
  TARR_REQUIRE(cfg.groups >= 2 && cfg.routers_per_group >= 1 &&
                   cfg.hosts_per_router >= 1 && cfg.global_per_router >= 1,
               "build_dragonfly_network: bad parameters");
  TARR_REQUIRE(cfg.groups - 1 <=
                   cfg.routers_per_group * cfg.global_per_router,
               "build_dragonfly_network: not enough global ports for "
               "all-to-all group connectivity");

  SwitchGraph g;
  std::vector<std::vector<NetVertexId>> routers(cfg.groups);
  for (int grp = 0; grp < cfg.groups; ++grp) {
    for (int r = 0; r < cfg.routers_per_group; ++r) {
      std::string name = "g";
      name += std::to_string(grp) + ".r" + std::to_string(r);
      routers[grp].push_back(g.add_vertex(VertexKind::Switch, std::move(name)));
    }
    // Fully connected group.
    for (int a = 0; a < cfg.routers_per_group; ++a)
      for (int b = a + 1; b < cfg.routers_per_group; ++b)
        g.add_link(routers[grp][a], routers[grp][b]);
  }

  // Global links: one per group pair, endpoint routers chosen round-robin
  // within each group (the canonical "palmtree"-style distribution).
  std::vector<int> next_port(cfg.groups, 0);
  for (int a = 0; a < cfg.groups; ++a) {
    for (int b = a + 1; b < cfg.groups; ++b) {
      const int ra = next_port[a]++ % cfg.routers_per_group;
      const int rb = next_port[b]++ % cfg.routers_per_group;
      g.add_link(routers[a][ra], routers[b][rb]);
    }
  }

  for (NodeId node = 0; node < num_nodes; ++node) {
    const int router_idx = node / cfg.hosts_per_router;
    const int grp = router_idx / cfg.routers_per_group;
    const int r = router_idx % cfg.routers_per_group;
    const NetVertexId host =
        g.add_vertex(VertexKind::Host, "node" + std::to_string(node), node);
    g.add_link(host, routers[grp][r]);
  }
  return g;
}

}  // namespace tarr::topology
