// Topology explorer: builds cluster models, inspects routes and distances —
// the information the mapping heuristics consume.  Demonstrates the
// topology substrate as a standalone library.

#include <cstdio>

#include "topology/distance.hpp"
#include "topology/fattree.hpp"
#include "topology/machine.hpp"

namespace {

using namespace tarr;
using namespace tarr::topology;

void show_route(const Machine& m, NodeId a, NodeId b) {
  const auto& net = m.network();
  std::printf("  node%-4d -> node%-4d (%d hops): node%d", a, b,
              m.router().hops(a, b), a);
  m.router().walk(a, b, [&](Hop h) {
    const NetLink& link = net.link(h.link);
    const NetVertexId entered = h.dir == 0 ? link.b : link.a;
    std::printf(" -> %s", net.vertex(entered).name.c_str());
  });
  std::printf("\n");
}

}  // namespace

int main() {
  // The paper's testbed shape at 1/4 scale: 120 nodes across 4 leaves.
  const Machine gpc = Machine::gpc(120);
  std::printf("GPC-like machine:\n%s\n\n", gpc.describe().c_str());

  std::printf("Sample routes (deterministic, destination-based):\n");
  show_route(gpc, 0, 5);     // same leaf
  show_route(gpc, 0, 35);    // neighboring leaf, same line switch
  show_route(gpc, 0, 95);    // across the core switches
  show_route(gpc, 95, 0);    // reverse direction

  std::printf("\nCore-to-core distances (what the heuristics see):\n");
  const DistanceMatrix d = extract_distances(gpc);
  struct Probe {
    const char* what;
    CoreId a, b;
  };
  const Probe probes[] = {
      {"same socket", 0, 1},
      {"same node, other socket", 0, 4},
      {"same leaf, other node", 0, 8},
      {"other leaf, same line group", 0, 35 * 8},
      {"across spines", 0, 95 * 8},
  };
  for (const auto& p : probes)
    std::printf("  %-28s d(core%d, core%d) = %.1f\n", p.what, p.a, p.b,
                d.at(p.a, p.b));

  std::printf("\nAlternative machines from the same builders:\n");
  const Machine xbar = Machine::single_switch(16);
  std::printf("%s\n", xbar.describe().c_str());
  const Machine ft = Machine(NodeShape{4, 8},
                             build_two_level_fattree(32, 8, 4, 2));
  std::printf("%s\n", ft.describe().c_str());
  return 0;
}
