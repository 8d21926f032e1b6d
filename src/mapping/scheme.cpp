#include "mapping/scheme.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/mapping_verifier.hpp"
#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::mapping {

namespace {

/// One pool node during the cluster build.
struct BuildNode {
  NodeId node = 0;              // id in the node matrix
  const float* row = nullptr;   // its node-matrix row
  int par = -1;                 // spanning tree: the node it joined through
  float key = 0.0f;             // spanning tree: distance to par
  int root = 0;                 // component; the root heads its member list
  int next = -1;                // next member of the component
  int tail = 0;                 // last member (kept at the root)
  int cluster = 0;              // the component's cluster (kept at the root)
};

}  // namespace

MappingState::MappingState(const std::vector<int>& rank_to_slot,
                           const topology::DistanceMatrix& d, Rng& rng)
    : p_(static_cast<int>(rank_to_slot.size())), d_(&d), rng_(&rng) {
  TARR_REQUIRE(p_ >= 1, "MappingState: empty rank set");
  int max_slot = 0;
  for (int s : rank_to_slot) {
    TARR_REQUIRE(s >= 0 && s < d.size(),
                 "MappingState: slot outside distance matrix");
    max_slot = std::max(max_slot, s);
  }
  assignment_.assign(p_, -1);
  free_index_.assign(max_slot + 1, -1);
  free_slots_.reserve(p_);
  for (int s : rank_to_slot) {
    TARR_REQUIRE(free_index_[s] == -1, "MappingState: duplicate slot");
    free_index_[s] = static_cast<int>(free_slots_.size());
    free_slots_.push_back(s);
  }
  build_clusters(rank_to_slot);
  // Step 1: rank 0 stays on its current slot.
  assign(0, rank_to_slot[0]);
}

void MappingState::build_clusters(const std::vector<int>& rank_to_slot) {
  const topology::DistanceMatrix& d = *d_;
  const int cpn = d.cores_per_node();
  if (d.num_nodes() < 2) return;
  leaf_.assign(d.num_nodes(), -1);
  for (int s : rank_to_slot) leaf_[s / cpn] = 0;
  std::vector<BuildNode> nd;
  nd.reserve(d.num_nodes());
  for (NodeId n = 0; n < d.num_nodes(); ++n)
    if (leaf_[n] == 0) nd.push_back(BuildNode{n, d.from(n * cpn).nodes});
  const int m = static_cast<int>(nd.size());
  if (m < 2) {
    leaf_.clear();
    return;
  }

  const bool ultrametric = [&] {
    // Minimum spanning tree of the pool's nodes (Prim, O(m^2)), in place:
    // nd[0] is the root, nd[1..k) joined the tree in turn, each through
    // nd[par], and nd[k..m) wait.  Positions in join order are the leaf
    // cluster ids.  A NaN key sticks and fails the build when its node joins.
    for (int v = 1; v < m; ++v) {
      nd[v].par = 0;
      nd[v].key = nd[0].row[nd[v].node];
    }
    for (int k = 1; k < m; ++k) {
      int pick = k;
      for (int i = k + 1; i < m; ++i)
        if (nd[i].key < nd[pick].key) pick = i;
      std::swap(nd[k], nd[pick]);
      if (std::isnan(nd[k].key)) return false;
      const float* row = nd[k].row;
      for (int i = k + 1; i < m; ++i) {
        const float w = row[nd[i].node];
        if (w < nd[i].key || std::isnan(w)) {
          nd[i].key = w;
          nd[i].par = k;
        }
      }
    }
    std::vector<int> order(m - 1);  // the tree's edges by height
    std::iota(order.begin(), order.end(), 1);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return nd[a].key < nd[b].key; });

    // Single linkage: join the tree's edges in height order, one new cluster
    // per component each height forms.  A join appends one member list to
    // the other, so every cluster's members stay contiguous in the list.
    clusters_.reserve(2 * static_cast<std::size_t>(m) - 1);
    for (int v = 0; v < m; ++v) {
      nd[v].root = nd[v].tail = nd[v].cluster = v;
      clusters_.push_back(Cluster{-1, 0.0f});
    }
    std::vector<int> joined;  // roots of the components one height joins
    joined.reserve(2 * static_cast<std::size_t>(m));
    for (int e = 0, f = 0; e < m - 1; e = f) {
      const float h = nd[order[e]].key;
      joined.clear();
      for (f = e; f < m - 1 && nd[order[f]].key == h; ++f) {
        joined.push_back(nd[nd[order[f]].par].root);
        joined.push_back(nd[order[f]].root);
      }
      for (int i = e; i < f; ++i) {
        const int a = nd[nd[order[i]].par].root;
        const int b = nd[order[i]].root;
        for (int y = b; y != -1; y = nd[y].next) nd[y].root = a;
        nd[nd[a].tail].next = b;
        nd[a].tail = nd[b].tail;
      }
      const int formed = static_cast<int>(clusters_.size());
      for (int r : joined)
        if (nd[r].root == r && nd[r].cluster < formed) {
          clusters_[nd[r].cluster].up = static_cast<int>(clusters_.size());
          nd[r].cluster = static_cast<int>(clusters_.size());
          clusters_.push_back(Cluster{-1, h});
        }
      for (int r : joined)
        if (nd[r].root != r && clusters_[nd[r].cluster].up == -1)
          clusters_[nd[r].cluster].up = nd[nd[r].root].cluster;
    }

    // The matrix is ultrametric with these clusters exactly when every node
    // is height(c) from each node it first shares cluster c with.  Each
    // cluster is a range of positions along the final member list, so row x
    // is checked range by range up its chain: every ordered pair once.
    std::vector<std::pair<int, int>> span(clusters_.size(), {m, 0});
    std::vector<NodeId> node_at(m);
    for (int x = nd[0].root, at = 0; x != -1; x = nd[x].next, ++at) {
      node_at[at] = nd[x].node;
      for (int c = x; c != -1; c = clusters_[c].up)
        span[c] = {std::min(span[c].first, at), at + 1};
    }
    for (int x = 0; x < m; ++x) {
      const float* row = nd[x].row;
      auto same = [&](int lo, int hi, float h) {
        for (int at = lo; at < hi; ++at)
          if (row[node_at[at]] != h) return false;
        return true;
      };
      for (int in = x, c = clusters_[x].up; c != -1;
           in = c, c = clusters_[c].up)
        if (!same(span[c].first, span[in].first, clusters_[c].height) ||
            !same(span[in].second, span[c].second, clusters_[c].height))
          return false;
    }
    return true;
  }();
  if (!ultrametric) {
    leaf_.clear();
    clusters_.clear();
    return;
  }
  for (int x = 0; x < m; ++x) leaf_[nd[x].node] = x;
  blocks_ = (static_cast<int>(free_slots_.size()) + kBlock - 1) / kBlock;
  block_free_.assign(clusters_.size() * blocks_, 0);
  for (std::size_t i = 0; i < free_slots_.size(); ++i)
    count_free(free_slots_[i], static_cast<int>(i) / kBlock, +1);
}

void MappingState::count_free(int slot, int block, int delta) {
  for (int c = leaf_of(slot); c != -1; c = clusters_[c].up)
    block_free_[cell(c, block)] =
        static_cast<std::uint16_t>(block_free_[cell(c, block)] + delta);
}

bool MappingState::block_counts_match(int block) {
  const int lo = block * kBlock;
  const int hi = std::min<int>(free_slots_.size(), lo + kBlock);
  for (int i = lo; i < hi; ++i) count_free(free_slots_[i], block, -1);
  bool zero = true;
  for (std::size_t c = 0; c < clusters_.size(); ++c)
    zero = zero && block_free_[cell(static_cast<int>(c), block)] == 0;
  for (int i = lo; i < hi; ++i) count_free(free_slots_[i], block, +1);
  return zero;
}

bool MappingState::is_mapped(Rank rank) const {
  TARR_REQUIRE(rank >= 0 && rank < p_, "is_mapped: rank out of range");
  return assignment_[rank] != -1;
}

int MappingState::slot_of(Rank rank) const {
  TARR_REQUIRE(is_mapped(rank), "slot_of: rank not mapped");
  return assignment_[rank];
}

int MappingState::find_closest_to(Rank ref_rank) {
  TARR_REQUIRE(!free_slots_.empty(), "find_closest_to: no free slots");
  const int ref_slot = slot_of(ref_rank);
  const topology::DistanceMatrix::Row row = d_->from(ref_slot);
  const int n = static_cast<int>(free_slots_.size());
  const int own = clusters_.empty() ? -1 : leaf_of(ref_slot);
  // Reservoir-style single pass in pool order: every tied minimum is chosen
  // with equal probability without materializing the tie set.  chosen is -1
  // while the pick is the ordinal-th slot at `best` of block `won`, a draw
  // replayed from the block counts.
  float best = row[free_slots_[0]];
  int ties = 1;
  int chosen = free_slots_[0];
  int won = 0;
  int ordinal = 0;
  int reads = 1;
  for (int b = 0; b * kBlock < n; ++b) {
    const int seeded = b == 0 ? 1 : 0;  // entry 0 started the pass
    if (own >= 0) {
      int c = own;
      while (block_free_[cell(c, b)] == 0) c = clusters_[c].up;
      if (c != own) {  // no free core of the reference's node here
        if (clusters_[c].height > best) continue;
        if (clusters_[c].height == best) {
          const int at_best = block_free_[cell(c, b)];
          for (int j = seeded; j < at_best; ++j)
            if (rng_->next_below(static_cast<std::uint64_t>(++ties)) == 0) {
              chosen = -1;
              won = b;
              ordinal = j;
            }
          continue;
        }
      }
    }
    const int lo = b * kBlock + seeded;
    const int hi = std::min(n, (b + 1) * kBlock);
    for (int i = lo; i < hi; ++i) {
      const int s = free_slots_[i];
      const float dist = row[s];
      if (dist < best) {
        best = dist;
        ties = 1;
        chosen = s;
      } else if (dist == best) {
        ++ties;
        if (rng_->next_below(static_cast<std::uint64_t>(ties)) == 0)
          chosen = s;
      }
    }
    reads += hi - lo;
  }
  if (chosen == -1) {
    const int hi = std::min(n, (won + 1) * kBlock);
    for (int i = won * kBlock; i < hi && chosen == -1; ++i) {
      ++reads;
      if (row[free_slots_[i]] == best && ordinal-- == 0)
        chosen = free_slots_[i];
    }
    TARR_REQUIRE(chosen != -1, "find_closest_to: block counts out of sync");
  }
  prof::count("mapping.scan_steps", static_cast<double>(n));
  prof::count("mapping.scan_reads", static_cast<double>(reads));
  if (ties > 1) ++tie_breaks_;
  return chosen;
}

void MappingState::assign(Rank rank, int slot) {
  TARR_REQUIRE(rank >= 0 && rank < p_, "assign: rank out of range");
  TARR_REQUIRE(assignment_[rank] == -1, "assign: rank already mapped");
  TARR_REQUIRE(slot >= 0 &&
                   slot < static_cast<int>(free_index_.size()) &&
                   free_index_[slot] != -1,
               "assign: slot not free");
  const int idx = free_index_[slot];
  const int last_idx = static_cast<int>(free_slots_.size()) - 1;
  const int last = free_slots_.back();
  if (!clusters_.empty()) {
    count_free(slot, idx / kBlock, -1);
    if (last_idx / kBlock != idx / kBlock) {
      count_free(last, last_idx / kBlock, -1);
      count_free(last, idx / kBlock, +1);
    }
  }
  free_slots_[idx] = last;
  free_index_[last] = idx;
  free_slots_.pop_back();
  free_index_[slot] = -1;
  assignment_[rank] = slot;
  ++mapped_;
  // The swap-remove pool and its index must stay mutually consistent; a
  // bookkeeping slip here surfaces far away as a duplicate assignment.
  // O(p) per placement, so only in TARR_SLOW_CHECKS builds.
  TARR_CHECK_SLOW(
      [this] {
        for (std::size_t i = 0; i < free_slots_.size(); ++i)
          if (free_index_[free_slots_[i]] != static_cast<int>(i)) return false;
        return true;
      }(),
      "assign: free-slot pool and index out of sync");
  // Likewise the free counts of the two blocks the swap-remove touched.
  TARR_CHECK_SLOW(clusters_.empty() || (block_counts_match(idx / kBlock) &&
                                        block_counts_match(last_idx / kBlock)),
                  "assign: block free counts out of sync with the pool");
}

void MappingState::map_close_to(Rank rank, Rank ref_rank) {
  assign(rank, find_closest_to(ref_rank));
}

Rank MappingState::first_unmapped() const {
  for (Rank r = 0; r < p_; ++r)
    if (assignment_[r] == -1) return r;
  return kNoRank;
}

std::vector<int> MappingState::result() const {
  TARR_REQUIRE(done(), "result: mapping incomplete");
  return assignment_;
}

std::vector<int> finish_mapping(const MappingState& st,
                                const std::string& mapper,
                                const std::vector<int>& rank_to_slot) {
  std::vector<int> result = st.result();
  // The run's decision counters, once each: every rank it placed, rank 0
  // included, and every scan that broke a tie.
  obs::count("mapping.placements", st.num_mapped());
  if (st.tie_breaks() > 0) obs::count("mapping.tie_breaks", st.tie_breaks());
  if constexpr (kSlowChecksEnabled)
    check::verify_mapping(mapper, rank_to_slot, result);
  return result;
}

}  // namespace tarr::mapping
