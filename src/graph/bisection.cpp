#include "graph/bisection.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::graph {

namespace {

/// Refinement budget per bisection, set at the Scotch-like mapper's
/// cost/quality point: a general-purpose mapper of the Scotch family spends
/// real work per bisection (multilevel coarsening + full FM).  Up to
/// kRefinePasses sweeps over the boundary, each scoring the kCandidateWindow
/// top-gain candidates per side per swap, approximate that.
constexpr int kRefinePasses = 8;
constexpr int kCandidateWindow = 64;

/// Clears the positions a call mapped, however the call ends, so the
/// Bisector's position map is all -1 between calls.
struct MappedPositions {
  std::vector<int>& pos;
  const std::vector<int>& subset;
  std::size_t count = 0;
  ~MappedPositions() {
    for (std::size_t i = 0; i < count; ++i) pos[subset[i]] = -1;
  }
};

}  // namespace

Bisector::Bisector(const WeightedGraph& g)
    : g_(g),
      pos_(g.num_vertices(), -1),
      gain_(g.num_vertices()),
      in0_(g.num_vertices()),
      heap_(g.num_vertices()),
      heap_at_(g.num_vertices()),
      d_(g.num_vertices()),
      row_(g.num_vertices(), 0.0) {
  TARR_REQUIRE(g.finalized(), "Bisector: graph not finalized");
}

BisectionResult Bisector::split(const std::vector<int>& subset, int size0,
                                Rng& rng) {
  const int n = static_cast<int>(subset.size());
  TARR_REQUIRE(size0 >= 0 && size0 <= n, "Bisector::split: bad part size");
  prof::ProfScope pscope("bisect");

  BisectionResult res;
  if (size0 == 0 || size0 == n) {
    res.side.assign(n, size0 == n ? 0 : 1);
    return res;
  }

  // Translate vertex ids to subset-local positions once, so all hot loops
  // are array-indexed.
  MappedPositions mapped{pos_, subset};
  for (int i = 0; i < n; ++i) {
    const int v = subset[i];
    TARR_REQUIRE(v >= 0 && v < g_.num_vertices(),
                 "Bisector::split: vertex out of range");
    TARR_REQUIRE(pos_[v] == -1, "Bisector::split: duplicate vertex");
    pos_[v] = i;
    ++mapped.count;
  }

  grow_steps_ = 0;
  swaps_ = 0;
  swap_evals_ = 0;
  grow(subset, size0, rng);
  res.side.resize(n);
  for (int i = 0; i < n; ++i) res.side[i] = in0_[i] ? 0 : 1;
  refine(subset, res.side);

  // Cut of the subset-internal edges.
  for (int i = 0; i < n; ++i) {
    if (res.side[i] != 0) continue;
    for (const auto& nb : g_.neighbors(subset[i])) {
      const int j = pos_[nb.vertex];
      if (j >= 0 && res.side[j] == 1) res.cut += nb.weight;
    }
  }
  obs::count("bisection.calls");
  obs::count("bisection.refine_swaps", static_cast<double>(swaps_));
  prof::count("bisection.grow_steps", static_cast<double>(grow_steps_));
  prof::count("bisection.swap_evals", static_cast<double>(swap_evals_));
  return res;
}

void Bisector::grow(const std::vector<int>& subset, int size0, Rng& rng) {
  // Seed part 0 from the heaviest subset vertex (random among ties), then
  // repeatedly absorb the unassigned vertex with the strongest connection to
  // part 0; unconnected front -> random unassigned vertex.
  //
  // Weights are positive and gains only grow, so the front is exactly the
  // unassigned vertices with gain > 0, and its top is the lowest index of
  // maximal gain: the vertex a scan of the subset would pick.  Work counted
  // in grow_steps_: one per absorbed vertex, one per heap level moved and n
  // per disconnected-front fallback.
  const int n = static_cast<int>(subset.size());
  std::fill_n(gain_.begin(), n, 0.0);
  std::fill_n(in0_.begin(), n, 0);
  std::fill_n(heap_at_.begin(), n, -1);
  heap_size_ = 0;

  double best = -1.0;
  ties_.clear();
  for (int i = 0; i < n; ++i) {
    const double wd = g_.weighted_degree(subset[i]);
    if (wd > best) {
      best = wd;
      ties_.assign(1, i);
    } else if (wd == best) {
      ties_.push_back(i);
    }
  }

  auto absorb = [&](int i) {
    in0_[i] = 1;
    ++grow_steps_;
    for (const auto& nb : g_.neighbors(subset[i])) {
      const int j = pos_[nb.vertex];
      if (j < 0 || in0_[j]) continue;
      gain_[j] += nb.weight;
      if (heap_at_[j] < 0) {
        heap_[heap_size_] = j;
        heap_at_[j] = heap_size_++;
      }
      sift_up(heap_at_[j]);
    }
  };
  absorb(ties_[rng.next_below(ties_.size())]);
  for (int filled = 1; filled < size0; ++filled) {
    if (heap_size_ > 0) {
      absorb(pop_front());
      continue;
    }
    // Disconnected front: the k-th unassigned vertex in index order.
    grow_steps_ += n;
    std::uint64_t k = rng.next_below(static_cast<std::uint64_t>(n - filled));
    int pick = 0;
    while (in0_[pick] || k-- > 0) ++pick;
    absorb(pick);
  }
}

void Bisector::sift_up(int slot) {
  const int v = heap_[slot];
  while (slot > 0) {
    const int parent = (slot - 1) / 2;
    const int u = heap_[parent];
    if (!above(v, u)) break;
    heap_[slot] = u;
    heap_at_[u] = slot;
    slot = parent;
    ++grow_steps_;
  }
  heap_[slot] = v;
  heap_at_[v] = slot;
}

int Bisector::pop_front() {
  const int top = heap_[0];
  heap_at_[top] = -1;
  const int last = heap_[--heap_size_];
  if (heap_size_ == 0) return top;
  int slot = 0;
  for (int child = 1; child < heap_size_; child = 2 * slot + 1) {
    if (child + 1 < heap_size_ && above(heap_[child + 1], heap_[child]))
      ++child;
    if (!above(heap_[child], last)) break;
    heap_[slot] = heap_[child];
    heap_at_[heap_[slot]] = slot;
    slot = child;
    ++grow_steps_;
  }
  heap_[slot] = last;
  heap_at_[last] = slot;
  return top;
}

void Bisector::refine(const std::vector<int>& subset, std::vector<int>& side) {
  // D[i] = external - internal connection.  Swapping (u in 0, v in 1) changes
  // the cut by -(D[u] + D[v] - 2 w(u,v)); accept best positive-gain swap from
  // a bounded candidate window, repeat for a few passes.
  const int n = static_cast<int>(subset.size());
  auto recompute_d = [&](int i) {
    double external = 0.0;
    double internal = 0.0;
    for (const auto& nb : g_.neighbors(subset[i])) {
      const int j = pos_[nb.vertex];
      if (j >= 0) (side[j] == side[i] ? internal : external) += nb.weight;
    }
    d_[i] = external - internal;
  };
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    for (int i = 0; i < n; ++i) recompute_d(i);
    cand0_.clear();
    cand1_.clear();
    for (int i = 0; i < n; ++i) (side[i] == 0 ? cand0_ : cand1_).push_back(i);
    auto by_d = [&](int a, int b) { return d_[a] > d_[b]; };
    std::sort(cand0_.begin(), cand0_.end(), by_d);
    std::sort(cand1_.begin(), cand1_.end(), by_d);
    const int w0 = std::min<int>(kCandidateWindow, cand0_.size());
    const int w1 = std::min<int>(kCandidateWindow, cand1_.size());

    bool improved = false;
    for (int iter = 0; iter < n; ++iter) {
      double best_gain = 0.0;
      int bu = -1, bv = -1;
      swap_evals_ += static_cast<long long>(w0) * w1;
      for (int a = 0; a < w0; ++a) {
        // w(u, ·) as a dense row: each candidate v reads its pair weight.
        const int u = cand0_[a];
        const auto& adj = g_.neighbors(subset[u]);
        for (const auto& nb : adj)
          if (const int j = pos_[nb.vertex]; j >= 0) row_[j] = nb.weight;
        for (int b = 0; b < w1; ++b) {
          const int v = cand1_[b];
          const double swap_gain = d_[u] + d_[v] - 2.0 * row_[v];
          if (swap_gain > best_gain + 1e-12) {
            best_gain = swap_gain;
            bu = u;
            bv = v;
          }
        }
        for (const auto& nb : adj)
          if (const int j = pos_[nb.vertex]; j >= 0) row_[j] = 0.0;
      }
      if (bu < 0) break;
      std::swap(side[bu], side[bv]);
      improved = true;
      ++swaps_;
      // Refresh D locally: the swapped pair and their subset neighbors.
      recompute_d(bu);
      recompute_d(bv);
      for (const auto& nb : g_.neighbors(subset[bu]))
        if (const int j = pos_[nb.vertex]; j >= 0) recompute_d(j);
      for (const auto& nb : g_.neighbors(subset[bv]))
        if (const int j = pos_[nb.vertex]; j >= 0) recompute_d(j);
      // Window lists keep their order; stale entries only cost missed gains.
    }
    if (!improved) break;
  }
}

}  // namespace tarr::graph
