// Differential oracle for the two-level DistanceMatrix: the dense p x p
// matrix the library used to store, rebuilt here by the old block-stamping
// loop, must agree bit for bit with every two-level producer, and every
// mapper must return the same mapping on either matrix.  Both matrices run
// through the same scan, so the mappings are also pinned by FNV-1a digests
// recorded from the dense implementation: a scan that keeps every distance
// but draws its ties in another order moves them.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "fault/degraded.hpp"
#include "fault/fault_mask.hpp"
#include "mapping/mapper.hpp"
#include "mapping/scheme.hpp"
#include "probe/congestion.hpp"
#include "probe/measure.hpp"
#include "simmpi/layout.hpp"
#include "topology/direct.hpp"
#include "topology/distance.hpp"

namespace tarr {
namespace {

using topology::DistanceMatrix;
using topology::IntraLevel;
using topology::Machine;
using NodeDistance = std::function<float(NodeId, NodeId)>;

// The distance scale, written out here so the oracle pins its values.
constexpr float kInterNodeBase = 10.0f;
constexpr float kPerHop = 5.0f;

float intra_weight(IntraLevel level) {
  switch (level) {
    case IntraLevel::SameCore:
      return 0.0f;
    case IntraLevel::SameComplex:
      return 1.0f;
    case IntraLevel::CrossComplex:
      return 1.5f;
    case IntraLevel::CrossSocket:
      return 2.0f;
  }
  return 2.0f;
}

/// The dense matrix as extract_distances, effective_core_distances and pass
/// 2 of probe_distances stamped it: a one-level p x p matrix holding the
/// intra-node template in every same-node block and `node_dist` in every
/// other block.
DistanceMatrix stamped_dense(const Machine& m, const NodeDistance& node_dist) {
  const int cpn = m.cores_per_node();
  DistanceMatrix d(m.total_cores());
  for (NodeId na = 0; na < m.num_nodes(); ++na)
    for (NodeId nb = na; nb < m.num_nodes(); ++nb)
      for (int a = 0; a < cpn; ++a)
        for (int b = 0; b < cpn; ++b)
          d.set(m.core_id(na, a), m.core_id(nb, b),
                na == nb ? intra_weight(
                               topology::intranode_level(m.shape(), a, b))
                         : node_dist(na, nb));
  return d;
}

/// Hop-count node distances, computed inline the way the dense
/// extract_distances did (+infinity across a partition).
NodeDistance hop_distance(const Machine& m) {
  return [&m](NodeId a, NodeId b) {
    return m.router().reachable(a, b)
               ? kInterNodeBase +
                     kPerHop * static_cast<float>(m.router().hops(a, b))
               : std::numeric_limits<float>::infinity();
  };
}

void expect_bit_equal(const DistanceMatrix& got, const DistanceMatrix& want) {
  ASSERT_EQ(got.size(), want.size());
  for (CoreId a = 0; a < want.size(); ++a)
    for (CoreId b = 0; b < want.size(); ++b)
      if (std::bit_cast<std::uint32_t>(got.at(a, b)) !=
          std::bit_cast<std::uint32_t>(want.at(a, b))) {
        ADD_FAILURE() << "at(" << a << ", " << b << ") = " << got.at(a, b)
                      << ", dense " << want.at(a, b);
        return;
      }
}

/// Step 5 of Algorithm 1 checked against at(): every slot find_closest_to
/// picks is free, and no free slot is closer to the reference.
void expect_scan_picks_closest(const DistanceMatrix& d,
                               const std::vector<int>& slots) {
  Rng rng(3);
  mapping::MappingState st(slots, d, rng);
  std::vector<char> free(static_cast<std::size_t>(d.size()), 0);
  for (std::size_t i = 1; i < slots.size(); ++i) free[slots[i]] = 1;
  for (Rank r = 1; r < static_cast<Rank>(slots.size()); ++r) {
    const int ref = st.slot_of(r / 2);
    float best = std::numeric_limits<float>::infinity();
    for (int s : slots)
      if (free[s]) best = std::min(best, d.at(ref, s));
    const int chosen = st.find_closest_to(r / 2);
    ASSERT_TRUE(free[chosen]) << "slot " << chosen;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(d.at(ref, chosen)),
              std::bit_cast<std::uint32_t>(best))
        << "rank " << r;
    st.assign(r, chosen);
    free[chosen] = 0;
  }
}

/// RDMH, RMH, BBMH, BGMH, BKMH and greedy-graph over two layouts and two
/// tie-break seeds: identical mapping vectors on either matrix.  Returns the
/// FNV-1a digest of all of them.
std::uint64_t expect_same_mappings(const Machine& m,
                                   const DistanceMatrix& two_level,
                                   const DistanceMatrix& dense) {
  using mapping::Pattern;
  std::vector<std::unique_ptr<mapping::Mapper>> mappers;
  for (Pattern p : {Pattern::RecursiveDoubling, Pattern::Ring,
                    Pattern::BinomialBcast, Pattern::BinomialGather,
                    Pattern::Bruck})
    mappers.push_back(mapping::make_heuristic(p));
  mappers.push_back(mapping::make_greedy_graph_mapper(Pattern::Ring));
  // RDMH needs a power-of-two process count.
  const int p = static_cast<int>(floor_pow2(m.total_cores()));
  std::uint64_t digest = 1469598103934665603ull;
  for (const simmpi::LayoutSpec& spec :
       {simmpi::LayoutSpec{simmpi::NodeOrder::Block, simmpi::SocketOrder::Bunch},
        simmpi::LayoutSpec{simmpi::NodeOrder::Cyclic,
                           simmpi::SocketOrder::Scatter}}) {
    const std::vector<CoreId> cores = simmpi::make_layout(m, p, spec);
    const std::vector<int> slots(cores.begin(), cores.end());
    expect_scan_picks_closest(two_level, slots);
    for (const auto& mapper : mappers)
      for (std::uint64_t seed : {1u, 2u}) {
        Rng r1(seed), r2(seed);
        const std::vector<int> mapped =
            mapper->checked_map(slots, two_level, r1);
        EXPECT_EQ(mapped, mapper->checked_map(slots, dense, r2))
            << mapper->name() << " layout " << simmpi::to_string(spec)
            << " seed " << seed;
        for (int s : mapped) {
          digest ^= static_cast<std::uint32_t>(s);
          digest *= 1099511628211ull;
        }
      }
  }
  return digest;
}

/// extract_distances against the stamped dense matrix, then the mappers
/// against their digest under the dense implementation.
void check_extraction(const Machine& m, std::uint64_t dense_digest) {
  const DistanceMatrix two_level = topology::extract_distances(m);
  EXPECT_EQ(two_level.num_nodes(), m.num_nodes());
  EXPECT_EQ(two_level.cores_per_node(), m.cores_per_node());
  const DistanceMatrix dense = stamped_dense(m, hop_distance(m));
  expect_bit_equal(two_level, dense);
  EXPECT_EQ(expect_same_mappings(m, two_level, dense), dense_digest);
}

TEST(DistanceOracle, GpcSizes) {
  const std::pair<int, std::uint64_t> cases[] = {
      {2, 0xe6a173f0efc92793ull},
      {31, 0xd8ef60bd49754c7full},
      {64, 0x13c39c29be04cf0bull}};
  for (const auto& [nodes, digest] : cases) {
    SCOPED_TRACE("gpc " + std::to_string(nodes));
    check_extraction(Machine::gpc(nodes), digest);
  }
}

TEST(DistanceOracle, DeepNodeShape) {
  check_extraction(Machine::gpc(4, topology::NodeShape{2, 16, 4}),
                   0x1e77d17acf382053ull);
}

TEST(DistanceOracle, Torus) {
  check_extraction(Machine(topology::NodeShape{},
                           topology::build_torus_network(4, 4, 1)),
                   0xb2a554a9fc1c0209ull);
}

TEST(DistanceOracle, Dragonfly) {
  check_extraction(Machine(topology::NodeShape{},
                           topology::build_dragonfly_network(20)),
                   0x0d57f723f4cad313ull);
}

TEST(DistanceOracle, DegradedGpcPricesSplitPairsAtInfinity) {
  const Machine base = Machine::gpc(64);
  fault::FaultMask mask;
  const topology::SwitchGraph& g = base.network();
  for (NetVertexId v = 0; v < g.num_vertices(); ++v)
    if (g.vertex(v).kind == topology::VertexKind::LineSwitch)
      mask.fail_switch(v);
  const fault::DegradedTopology topo(base, std::move(mask));
  ASSERT_FALSE(topo.machine().router().fully_connected());
  EXPECT_EQ(topo.distances().at(0, 63 * 8),
            std::numeric_limits<float>::infinity());
  check_extraction(topo.machine(), 0x13c39c29be04cf0bull);
}

TEST(DistanceOracle, CongestedEffectiveDistances) {
  const Machine base = Machine::gpc(31);
  for (int epoch : {0, 3}) {
    const fault::DegradedTopology topo(
        base, probe::congestion_mask(base.network(), probe::CongestionConfig{},
                                     epoch));
    const DistanceMatrix node = probe::effective_node_distances(topo);
    const DistanceMatrix two_level(
        node, topology::extract_intranode_distances(topo.machine()));
    const DistanceMatrix dense = stamped_dense(
        topo.machine(), [&](NodeId a, NodeId b) { return node.at(a, b); });
    expect_bit_equal(two_level, dense);
    EXPECT_EQ(expect_same_mappings(topo.machine(), two_level, dense),
              0xd8ef60bd49754c7full);
  }
}

TEST(DistanceOracle, ProbedDistances) {
  const Machine m = Machine::gpc(31);
  probe::ProbeConfig cfg;
  cfg.noise = 0.2;
  cfg.outlier_prob = 0.05;
  cfg.timeout_prob = 0.3;
  cfg.max_attempts = 1;
  cfg.seed = 5;
  const probe::ProbedDistances out = probe::probe_distances(
      m, topology::extract_node_distances(m), cfg);
  ASSERT_GT(out.report.unresolved_pairs(), 0);
  // Pair estimates in ascending (a, b) order, worst case where unresolved.
  std::vector<float> pair(static_cast<std::size_t>(m.num_nodes()) *
                          m.num_nodes());
  for (const probe::PairProbe& pp : out.report.pair_stats)
    pair[static_cast<std::size_t>(pp.a) * m.num_nodes() + pp.b] =
        pp.resolved ? pp.estimate : out.report.worst_case_distance;
  const DistanceMatrix dense = stamped_dense(m, [&](NodeId a, NodeId b) {
    return pair[static_cast<std::size_t>(a) * m.num_nodes() + b];
  });
  expect_bit_equal(out.distances, dense);
  EXPECT_EQ(expect_same_mappings(m, out.distances, dense),
            0xe0aff02e015473ffull);
}

}  // namespace
}  // namespace tarr
