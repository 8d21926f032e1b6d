#include "graph/bisection.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::graph {

namespace {

/// Dense helper state for one bisection call.  Vertex ids are translated to
/// subset-local positions once so all hot loops are array-indexed.
struct LocalView {
  const WeightedGraph& g;
  const std::vector<int>& subset;
  std::vector<int> pos;  // global vertex -> local position or -1

  LocalView(const WeightedGraph& graph, const std::vector<int>& sub)
      : g(graph), subset(sub), pos(graph.num_vertices(), -1) {
    for (std::size_t i = 0; i < sub.size(); ++i) {
      TARR_REQUIRE(pos[sub[i]] == -1, "bisect_subset: duplicate vertex");
      pos[sub[i]] = static_cast<int>(i);
    }
  }
};

/// Connection weight of local vertex i to the given side, within the subset.
double side_connection(const LocalView& lv, const std::vector<int>& side,
                       int i, int which) {
  double w = 0.0;
  for (const auto& nb : lv.g.neighbors(lv.subset[i])) {
    const int j = lv.pos[nb.vertex];
    if (j >= 0 && side[j] == which) w += nb.weight;
  }
  return w;
}

}  // namespace

BisectionResult bisect_subset(const WeightedGraph& g,
                              const std::vector<int>& subset, int size0,
                              Rng& rng, const BisectionOptions& opts) {
  const int n = static_cast<int>(subset.size());
  TARR_REQUIRE(g.finalized(), "bisect_subset: graph not finalized");
  TARR_REQUIRE(size0 >= 0 && size0 <= n, "bisect_subset: bad part size");
  prof::ProfScope pscope("bisect");

  BisectionResult res;
  res.side.assign(n, 1);
  if (size0 == 0 || size0 == n) {
    std::fill(res.side.begin(), res.side.end(), size0 == n ? 0 : 1);
    res.cut = 0.0;
    return res;
  }

  LocalView lv(g, subset);

  // --- Greedy graph growing -------------------------------------------------
  // Seed part 0 from the heaviest subset vertex (random among ties), then
  // repeatedly absorb the unassigned vertex with the strongest connection to
  // part 0; unconnected front -> random unassigned vertex.
  std::vector<double> gain(n, 0.0);  // connection to part 0
  std::vector<char> in0(n, 0);

  int seed = 0;
  {
    double best = -1.0;
    std::vector<int> ties;
    for (int i = 0; i < n; ++i) {
      const double wd = g.weighted_degree(subset[i]);
      if (wd > best) {
        best = wd;
        ties.assign(1, i);
      } else if (wd == best) {
        ties.push_back(i);
      }
    }
    seed = ties[rng.next_below(ties.size())];
  }

  auto absorb = [&](int i) {
    in0[i] = 1;
    for (const auto& nb : g.neighbors(subset[i])) {
      const int j = lv.pos[nb.vertex];
      if (j >= 0 && !in0[j]) gain[j] += nb.weight;
    }
  };
  absorb(seed);
  for (int filled = 1; filled < size0; ++filled) {
    int best = -1;
    double best_gain = -1.0;
    for (int i = 0; i < n; ++i) {
      if (!in0[i]) {
        if (gain[i] > best_gain) {
          best_gain = gain[i];
          best = i;
        }
      }
    }
    if (best_gain <= 0.0) {
      // Disconnected front: pick a random unassigned vertex.
      std::vector<int> free;
      for (int i = 0; i < n; ++i)
        if (!in0[i]) free.push_back(i);
      best = free[rng.next_below(free.size())];
    }
    absorb(best);
  }
  for (int i = 0; i < n; ++i) res.side[i] = in0[i] ? 0 : 1;

  // --- Pairwise swap refinement ----------------------------------------------
  // D[i] = external - internal connection.  Swapping (u in 0, v in 1) changes
  // the cut by -(D[u] + D[v] - 2 w(u,v)); accept best positive-gain swap from
  // a bounded candidate window, repeat for a few passes.
  long long swaps = 0;
  long long swap_evals = 0;  // candidate pairs scored (the FM-style inner loop)
  std::vector<double> d(n);
  auto recompute_d = [&](int i) {
    const int s = res.side[i];
    d[i] = side_connection(lv, res.side, i, 1 - s) -
           side_connection(lv, res.side, i, s);
  };
  for (int pass = 0; pass < opts.refine_passes; ++pass) {
    for (int i = 0; i < n; ++i) recompute_d(i);
    std::vector<int> cand0, cand1;
    for (int i = 0; i < n; ++i) (res.side[i] == 0 ? cand0 : cand1).push_back(i);
    auto by_d = [&](int a, int b) { return d[a] > d[b]; };
    std::sort(cand0.begin(), cand0.end(), by_d);
    std::sort(cand1.begin(), cand1.end(), by_d);
    const int w0 = std::min<int>(opts.candidate_window, cand0.size());
    const int w1 = std::min<int>(opts.candidate_window, cand1.size());

    bool improved = false;
    for (int iter = 0; iter < n; ++iter) {
      double best_gain = 0.0;
      int bu = -1, bv = -1;
      swap_evals += static_cast<long long>(w0) * w1;
      for (int a = 0; a < w0; ++a) {
        for (int b = 0; b < w1; ++b) {
          const int u = cand0[a], v = cand1[b];
          double wuv = 0.0;
          for (const auto& nb : g.neighbors(subset[u])) {
            const int j = lv.pos[nb.vertex];
            if (j == v) wuv = nb.weight;
          }
          const double swap_gain = d[u] + d[v] - 2.0 * wuv;
          if (swap_gain > best_gain + 1e-12) {
            best_gain = swap_gain;
            bu = u;
            bv = v;
          }
        }
      }
      if (bu < 0) break;
      std::swap(res.side[bu], res.side[bv]);
      improved = true;
      ++swaps;
      // Refresh D locally: the swapped pair and their subset neighbors.
      recompute_d(bu);
      recompute_d(bv);
      for (const auto& nb : g.neighbors(subset[bu])) {
        const int j = lv.pos[nb.vertex];
        if (j >= 0) recompute_d(j);
      }
      for (const auto& nb : g.neighbors(subset[bv])) {
        const int j = lv.pos[nb.vertex];
        if (j >= 0) recompute_d(j);
      }
      // Window lists keep their order; stale entries only cost missed gains.
    }
    if (!improved) break;
  }

  // Cut of the subset-internal edges.
  double cut = 0.0;
  for (int i = 0; i < n; ++i) {
    if (res.side[i] != 0) continue;
    for (const auto& nb : g.neighbors(subset[i])) {
      const int j = lv.pos[nb.vertex];
      if (j >= 0 && res.side[j] == 1) cut += nb.weight;
    }
  }
  res.cut = cut;
  obs::count("bisection.calls");
  obs::count("bisection.refine_swaps", static_cast<double>(swaps));
  prof::count("bisection.swap_evals", static_cast<double>(swap_evals));
  return res;
}

}  // namespace tarr::graph
