#include "graph/graph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tarr::graph {

WeightedGraph::WeightedGraph(int num_vertices) : n_(num_vertices) {
  TARR_REQUIRE(num_vertices >= 0, "WeightedGraph: negative vertex count");
}

void WeightedGraph::add_edge(int u, int v, double w) {
  TARR_REQUIRE(!finalized_, "add_edge after finalize");
  TARR_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
               "add_edge: vertex out of range");
  TARR_REQUIRE(u != v, "add_edge: self-loop");
  TARR_REQUIRE(w > 0, "add_edge: weight must be positive");
  if (u > v) std::swap(u, v);
  edges_.push_back(Edge{u, v, w});
}

void WeightedGraph::finalize() {
  if (finalized_) return;
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  // Merge parallel edges.
  std::vector<Edge> merged;
  merged.reserve(edges_.size());
  for (const Edge& e : edges_) {
    if (!merged.empty() && merged.back().u == e.u && merged.back().v == e.v) {
      merged.back().w += e.w;
    } else {
      merged.push_back(e);
    }
  }
  edges_ = std::move(merged);

  adj_.assign(n_, {});
  wdeg_.assign(n_, 0.0);
  for (const Edge& e : edges_) {
    adj_[e.u].push_back(Neighbor{e.v, e.w});
    adj_[e.v].push_back(Neighbor{e.u, e.w});
    wdeg_[e.u] += e.w;
    wdeg_[e.v] += e.w;
  }
  finalized_ = true;
}

const std::vector<WeightedGraph::Neighbor>& WeightedGraph::neighbors(
    int u) const {
  TARR_REQUIRE(finalized_, "neighbors: graph not finalized");
  TARR_REQUIRE(u >= 0 && u < n_, "neighbors: vertex out of range");
  return adj_[u];
}

const std::vector<Edge>& WeightedGraph::edges() const {
  TARR_REQUIRE(finalized_, "edges: graph not finalized");
  return edges_;
}

double WeightedGraph::weighted_degree(int u) const {
  TARR_REQUIRE(finalized_, "weighted_degree: graph not finalized");
  TARR_REQUIRE(u >= 0 && u < n_, "weighted_degree: vertex out of range");
  return wdeg_[u];
}

void WeightedGraph::set_unit_weights() {
  TARR_REQUIRE(finalized_, "set_unit_weights: graph not finalized");
  for (Edge& e : edges_) e.w = 1.0;
  for (int u = 0; u < n_; ++u) {
    for (Neighbor& nb : adj_[u]) nb.weight = 1.0;
    wdeg_[u] = static_cast<double>(adj_[u].size());
  }
}

}  // namespace tarr::graph
