#include "graph/apppattern.hpp"

#include "common/error.hpp"

namespace tarr::graph {

WeightedGraph stencil2d_pattern(int nx, int ny, double weight) {
  TARR_REQUIRE(nx >= 1 && ny >= 1 && nx * ny >= 2,
               "stencil2d_pattern: bad grid");
  WeightedGraph g(nx * ny);
  auto id = [&](int i, int j) { return i * ny + j; };
  for (int i = 0; i < nx; ++i) {
    for (int j = 0; j < ny; ++j) {
      if (i + 1 < nx) g.add_edge(id(i, j), id(i + 1, j), weight);
      if (j + 1 < ny) g.add_edge(id(i, j), id(i, j + 1), weight);
    }
  }
  g.finalize();
  return g;
}

}  // namespace tarr::graph
