// Differential oracle for step 5 of Algorithm 1.  MappingState settles a
// pool block from its cluster free counts where the node matrix is
// ultrametric; the full reservoir scan it replaced, copied here, reads every
// free slot.  Both run in lockstep over the same placements with identically
// seeded tie-break RNGs, and must make the same pick every time and leave
// their RNGs in the same state.  The profiler's scan counters show which
// path ran, and FNV-1a digests of every mapper's output on GPC 512, recorded
// from the full scan, pin the end-to-end mappings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/degraded.hpp"
#include "fault/fault_mask.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/mapper.hpp"
#include "mapping/scheme.hpp"
#include "probe/congestion.hpp"
#include "probe/measure.hpp"
#include "prof/obs.hpp"
#include "prof/profiler.hpp"
#include "simmpi/layout.hpp"
#include "topology/direct.hpp"
#include "topology/distance.hpp"

namespace tarr {
namespace {

using topology::DistanceMatrix;
using topology::Machine;

/// Step 5 as it read every slot: a swap-remove pool of free slots scanned
/// in pool order, each slot that ties the running minimum drawing
/// next_below(ties) and taken on a draw of 0.
class FullScan {
 public:
  FullScan(const std::vector<int>& slots, Rng& rng)
      : rng_(&rng),
        pool_(slots),
        index_(*std::max_element(slots.begin(), slots.end()) + 1, -1) {
    for (std::size_t i = 0; i < pool_.size(); ++i)
      index_[pool_[i]] = static_cast<int>(i);
  }

  int closest_to(const DistanceMatrix& d, int ref_slot) {
    const DistanceMatrix::Row row = d.from(ref_slot);
    float best = row[pool_[0]];
    int ties = 1;
    int chosen = pool_[0];
    for (std::size_t i = 1; i < pool_.size(); ++i) {
      const int s = pool_[i];
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
    return chosen;
  }

  void take(int slot) {
    const int idx = index_[slot];
    pool_[idx] = pool_.back();
    index_[pool_[idx]] = idx;
    pool_.pop_back();
    index_[slot] = -1;
  }

 private:
  Rng* rng_;
  std::vector<int> pool_;
  std::vector<int> index_;
};

/// Which path the scan must take on a matrix: settle some blocks from their
/// counts, or read every entry.
enum class Path { SkipsBlocks, ReadsAll };

/// MappingState against FullScan over `slots`: ranks 1..p-1 placed in an
/// order drawn from a separate RNG, each next to a random placed rank.
void expect_lockstep(const DistanceMatrix& d, const std::vector<int>& slots,
                     Path path) {
  prof::Profiler profiler;
  for (std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng ties_new(seed), ties_old(seed), order(seed + 100);
    {
      obs::Install ambient(&profiler);
      mapping::MappingState st(slots, d, ties_new);
      FullScan full(slots, ties_old);
      full.take(slots[0]);  // step 1: rank 0 keeps its slot
      std::vector<Rank> placed{0};
      std::vector<Rank> waiting;
      for (Rank r = 1; r < static_cast<Rank>(slots.size()); ++r)
        waiting.push_back(r);
      while (!waiting.empty()) {
        const std::size_t w = order.next_below(waiting.size());
        const Rank rank = waiting[w];
        waiting[w] = waiting.back();
        waiting.pop_back();
        const Rank ref = placed[order.next_below(placed.size())];
        const int got = st.find_closest_to(ref);
        const int want = full.closest_to(d, st.slot_of(ref));
        ASSERT_EQ(got, want) << "placing rank " << rank << " next to " << ref;
        st.assign(rank, got);
        full.take(want);
        placed.push_back(rank);
      }
    }
    EXPECT_EQ(ties_new.next_u64(), ties_old.next_u64());
  }
  const prof::Profile profile = profiler.snapshot();
  const double steps = profile.counter_total("mapping.scan_steps");
  const double reads = profile.counter_total("mapping.scan_reads");
  EXPECT_GT(reads, 0.0);
  if (path == Path::SkipsBlocks)
    EXPECT_LT(reads, steps);
  else
    EXPECT_EQ(reads, steps);
}

/// The full machine in block-bunch order, and a partial, non-power-of-two
/// communicator in cyclic-scatter order that leaves the last pool block and
/// some nodes partly filled.
void expect_lockstep_pools(const Machine& m, const DistanceMatrix& d,
                           Path path) {
  const int all = m.total_cores();
  for (const auto& [p, spec] :
       {std::pair{all, simmpi::LayoutSpec{}},
        std::pair{all * 5 / 8 + 3,
                  simmpi::LayoutSpec{simmpi::NodeOrder::Cyclic,
                                     simmpi::SocketOrder::Scatter}}}) {
    SCOPED_TRACE(std::to_string(p) + " ranks " + simmpi::to_string(spec));
    const std::vector<CoreId> cores = simmpi::make_layout(m, p, spec);
    expect_lockstep(d, std::vector<int>(cores.begin(), cores.end()), path);
  }
}

void expect_lockstep_pools(const Machine& m, Path path) {
  expect_lockstep_pools(m, topology::extract_distances(m), path);
}

fault::FaultMask line_switches_failed(const Machine& m) {
  fault::FaultMask mask;
  const topology::SwitchGraph& g = m.network();
  for (NetVertexId v = 0; v < g.num_vertices(); ++v)
    if (g.vertex(v).kind == topology::VertexKind::LineSwitch)
      mask.fail_switch(v);
  return mask;
}

TEST(ScanOracle, UltrametricGpc) {
  for (int nodes : {2, 31, 64, 512}) {
    SCOPED_TRACE("gpc " + std::to_string(nodes));
    expect_lockstep_pools(Machine::gpc(nodes), Path::SkipsBlocks);
  }
}

TEST(ScanOracle, UltrametricFatTreeAndDeepNode) {
  expect_lockstep_pools(
      Machine(topology::NodeShape{},
              topology::build_two_level_fattree(64, 8, 4)),
      Path::SkipsBlocks);
  expect_lockstep_pools(Machine::gpc(4, topology::NodeShape{2, 16, 4}),
                        Path::SkipsBlocks);
}

TEST(ScanOracle, UltrametricDegradedGpc) {
  const Machine base = Machine::gpc(64);
  // Every line switch failed: the line groups are priced +inf apart.
  const fault::DegradedTopology split(base, line_switches_failed(base));
  expect_lockstep_pools(split.machine(), Path::SkipsBlocks);
  Rng rng(7);
  const fault::DegradedTopology cut(
      base, fault::FaultMask::random_links(base.network(), 8, rng));
  expect_lockstep_pools(cut.machine(), Path::SkipsBlocks);
}

TEST(ScanOracle, UltrametricCongestedGpc) {
  const Machine base = Machine::gpc(31);
  for (int epoch : {0, 3}) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    const fault::DegradedTopology topo(
        base, probe::congestion_mask(base.network(), probe::CongestionConfig{},
                                     epoch));
    const DistanceMatrix d(
        probe::effective_node_distances(topo),
        topology::extract_intranode_distances(topo.machine()));
    expect_lockstep_pools(topo.machine(), d, Path::SkipsBlocks);
  }
}

TEST(ScanOracle, OnePairChangedInTheNodeMatrix) {
  // Nodes 3 and 17 share a leaf switch of GPC 31.  Bringing them closer
  // than their leaf keeps the matrix ultrametric with one more cluster;
  // moving them apart, or a NaN, breaks it.
  const Machine m = Machine::gpc(31);
  const DistanceMatrix node = topology::extract_node_distances(m);
  const DistanceMatrix intra = topology::extract_intranode_distances(m);
  ASSERT_EQ(node.at(3, 17), node.at(3, 4));
  for (const auto& [v, path] :
       {std::pair{node.at(3, 17) - 1.0f, Path::SkipsBlocks},
        std::pair{node.at(3, 17) + 0.5f, Path::ReadsAll},
        std::pair{std::numeric_limits<float>::quiet_NaN(), Path::ReadsAll}}) {
    SCOPED_TRACE("d(3, 17) = " + std::to_string(v));
    DistanceMatrix changed = node;
    changed.set(3, 17, v);
    expect_lockstep_pools(m, DistanceMatrix(changed, intra), path);
  }
}

TEST(ScanOracle, NonUltrametricReadsEveryEntry) {
  expect_lockstep_pools(Machine(topology::NodeShape{},
                                topology::build_torus_network(4, 4, 4)),
                        Path::ReadsAll);
  expect_lockstep_pools(Machine(topology::NodeShape{},
                                topology::build_dragonfly_network(72)),
                        Path::ReadsAll);
  const Machine m = Machine::gpc(31);
  probe::ProbeConfig cfg;
  cfg.noise = 0.2;
  cfg.outlier_prob = 0.05;
  cfg.timeout_prob = 0.3;
  cfg.max_attempts = 1;
  cfg.seed = 5;
  const probe::ProbedDistances probed = probe::probe_distances(
      m, topology::extract_node_distances(m), cfg);
  expect_lockstep_pools(m, probed.distances, Path::ReadsAll);
}

TEST(ScanOracle, OneLevelLineReadsEveryEntry) {
  constexpr int kSlots = 150;
  DistanceMatrix line(kSlots);
  for (int a = 0; a < kSlots; ++a)
    for (int b = a + 1; b < kSlots; ++b)
      line.set(a, b, static_cast<float>(b - a));
  std::vector<int> slots;
  for (int s = kSlots - 1; s >= 0; s -= 2) slots.push_back(s);
  for (int s = 0; s < kSlots; s += 2) slots.push_back(s);
  expect_lockstep(line, slots, Path::ReadsAll);
}

std::uint64_t fnv1a(std::uint64_t digest, const std::vector<int>& v) {
  for (int x : v) {
    digest ^= static_cast<std::uint32_t>(x);
    digest *= 1099511628211ull;
  }
  return digest;
}

TEST(ScanOracle, GpcMappingsMatchRecordedDigests) {
  using mapping::BbmhTraversal;
  using mapping::Pattern;
  std::vector<std::pair<std::unique_ptr<mapping::Mapper>, std::uint64_t>>
      cases;
  cases.emplace_back(std::make_unique<mapping::RdmhMapper>(),
                     0xf7b264b6d509d473ull);
  cases.emplace_back(std::make_unique<mapping::RmhMapper>(),
                     0x0eae816e03989d1dull);
  cases.emplace_back(
      std::make_unique<mapping::BbmhMapper>(BbmhTraversal::SmallSubtreeFirst),
      0xbfbc0e7d51c63a63ull);
  cases.emplace_back(
      std::make_unique<mapping::BbmhMapper>(BbmhTraversal::LargeSubtreeFirst),
      0xa745ba19e8faa231ull);
  cases.emplace_back(
      std::make_unique<mapping::BbmhMapper>(BbmhTraversal::LevelOrder),
      0x3f250cf84bfd8763ull);
  cases.emplace_back(std::make_unique<mapping::BgmhMapper>(),
                     0x564b89253c6f9a17ull);
  cases.emplace_back(std::make_unique<mapping::BkmhMapper>(),
                     0x42232b950ce0bb63ull);
  const std::pair<Pattern, std::uint64_t> greedy[] = {
      {Pattern::RecursiveDoubling, 0x963a3d88c2722a33ull},
      {Pattern::Ring, 0x6ad6eac20f6abc03ull},
      {Pattern::BinomialBcast, 0x1475ad597011286dull},
      {Pattern::BinomialGather, 0x0b1235c82109141bull},
      {Pattern::Bruck, 0x56b9e470bf2d5047ull}};
  for (const auto& [pattern, digest] : greedy)
    cases.emplace_back(mapping::make_greedy_graph_mapper(pattern), digest);

  const Machine m = Machine::gpc(512);
  const DistanceMatrix d = topology::extract_distances(m);
  std::vector<std::vector<int>> layouts;
  for (const simmpi::LayoutSpec& spec :
       {simmpi::LayoutSpec{},
        simmpi::LayoutSpec{simmpi::NodeOrder::Cyclic,
                           simmpi::SocketOrder::Scatter}}) {
    const std::vector<CoreId> cores =
        simmpi::make_layout(m, m.total_cores(), spec);
    layouts.emplace_back(cores.begin(), cores.end());
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [mapper, want] = cases[i];
    std::uint64_t digest = 1469598103934665603ull;
    for (const std::vector<int>& slots : layouts)
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        digest = fnv1a(digest, mapper->checked_map(slots, d, rng));
      }
    EXPECT_EQ(digest, want) << "case " << i << ": " << mapper->name();
  }
}

}  // namespace
}  // namespace tarr
