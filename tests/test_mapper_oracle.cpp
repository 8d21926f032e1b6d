// The mapper table (core/mappers.hpp), TopoAllgather's one reorder cache
// and the graph and hierarchical mappers against the code they replaced.
// The table's keys and labels are pinned.
//
// Copies of TopoAllgather's old reorder switch (with ReorderFramework's old
// pattern-taking reorder_hierarchical inlined into its heuristic arm, and
// its old reorder_hierarchical as a copy below) and of its separate
// MVAPICH-baseline reorder run beside the TopoAllgather each configuration
// builds now, over every mapper kind; flat and hierarchical runs, the
// latter with binomial and linear intra phases and BBMH and BGMH intra
// patterns; both order fixes; the four layouts; GPC 2, 3, 4 and 8 nodes;
// and 1 KiB and 64 KiB blocks:
//   - reordered_for() places and renumbers ranks as the old switch did, or
//     throws where it threw, also on the call after a throw;
//   - latency() prices what the old code priced;
//   - an FNV-1a digest of every latency() and run_and_check() result (a
//     throw counted as one) matches the digest recorded with the old code;
//   - the MVAPICH-default baseline never charges mapping time.
//
// Copies of ReorderFramework's old reorder_for_graph and
// reorder_hierarchical run beside reorder_with over a mapping::GraphMapper
// (both engines, stencils on GPC 4 and 64, the four layouts) and a
// mapping::HierarchicalMapper (heuristic, Scotch-like and greedy leaders
// with BBMH, BGMH or no intra mapper, GPC 1-8 with flat and deep node
// shapes, the four layouts and two node sets whose blocks differ in local
// core order): each reorder places and renumbers ranks as the copy did,
// or throws where it threw.

#include "core/topoallgather.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "check/mapping_verifier.hpp"
#include "collectives/selector.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "graph/apppattern.hpp"
#include "mapping/comparators.hpp"
#include "simmpi/layout.hpp"

namespace tarr::core {
namespace {

using collectives::AllgatherAlgo;
using collectives::IntraAlgo;
using collectives::OrderFix;
using mapping::Pattern;
using simmpi::Communicator;

// ---------------------------------------------------------------------------
// The replaced code, as it was
// ---------------------------------------------------------------------------

Pattern old_pattern_of(AllgatherAlgo algo) {
  switch (algo) {
    case AllgatherAlgo::RecursiveDoubling:
      return Pattern::RecursiveDoubling;
    case AllgatherAlgo::Ring:
      return Pattern::Ring;
    case AllgatherAlgo::Bruck:
      return Pattern::Bruck;
  }
  return Pattern::Ring;
}

/// TopoAllgather::algo_for.
AllgatherAlgo old_algo_for(const Communicator& comm,
                           const TopoAllgatherConfig& cfg, Bytes msg) {
  if (!cfg.hierarchical)
    return collectives::select_allgather_algo(comm.size(), msg);
  const int cpn = comm.machine().cores_per_node();
  const AllgatherAlgo algo =
      collectives::select_allgather_algo(comm.size() / cpn, msg * cpn);
  return algo == AllgatherAlgo::Bruck ? AllgatherAlgo::Ring : algo;
}

/// ReorderFramework's old reordered_to: `comm` reordered onto
/// `new_rank_to_core`, with the oldrank of Communicator::permutation_to,
/// inverted.
ReorderedComm old_reordered_to(const Communicator& comm,
                               std::vector<CoreId> new_rank_to_core) {
  Communicator reordered = comm.reordered(std::move(new_rank_to_core));
  std::vector<Rank> old_to_new(comm.size());
  for (Rank old = 0; old < comm.size(); ++old) {
    old_to_new[old] = reordered.rank_on_core(comm.core_of(old));
    TARR_REQUIRE(old_to_new[old] != kNoRank,
                 "permutation_to: core sets differ");
  }
  return ReorderedComm{std::move(reordered), invert_permutation(old_to_new),
                       0.0};
}

/// ReorderFramework::reorder_for_graph (its sink, timer and wall span
/// aside).
ReorderedComm old_reorder_for_graph(ReorderFramework& fw,
                                    const Communicator& comm,
                                    const graph::WeightedGraph& pattern,
                                    bool greedy) {
  TARR_REQUIRE(pattern.num_vertices() == comm.size(),
               "reorder_for_graph: pattern size != communicator size");
  const topology::DistanceMatrix& d = fw.distances();
  Rng rng(fw.seed());
  std::vector<int> new_rank_to_core =
      greedy ? mapping::greedy_graph_map(pattern, comm.rank_to_core(), d, rng)
             : mapping::scotch_like_map(pattern, comm.rank_to_core(), rng);
  check::verify_mapping(greedy ? "greedy-graph" : "scotch-like",
                        comm.rank_to_core(), new_rank_to_core);
  return old_reordered_to(comm, std::move(new_rank_to_core));
}

/// ReorderFramework::reorder_hierarchical (its sink, timer and wall span
/// aside).
ReorderedComm old_reorder_hierarchical(ReorderFramework& fw,
                                       const Communicator& comm,
                                       const mapping::Mapper& leader_mapper,
                                       const mapping::Mapper* intra_mapper) {
  TARR_REQUIRE(comm.node_contiguous(),
               "reorder_hierarchical: communicator must be node-contiguous");
  const topology::Machine& m = fw.machine();
  const int cpn = m.cores_per_node();
  const int nodes = comm.size() / cpn;
  const topology::DistanceMatrix node_dist = fw.distances().node_level();
  const topology::DistanceMatrix intra_dist = fw.distances().intra_level();
  Rng rng(fw.seed());

  std::vector<int> block_to_node(nodes);
  for (int b = 0; b < nodes; ++b) block_to_node[b] = comm.node_of(b * cpn);
  const std::vector<int> new_block_to_node =
      leader_mapper.checked_map(block_to_node, node_dist, rng);

  std::vector<int> block_of_node(m.num_nodes(), -1);
  for (int b = 0; b < nodes; ++b) block_of_node[block_to_node[b]] = b;

  std::vector<CoreId> new_rank_to_core(comm.size());
  for (int nb = 0; nb < nodes; ++nb) {
    const NodeId node = new_block_to_node[nb];
    const int ob = block_of_node[node];
    std::vector<int> local_slots(cpn);
    for (int k = 0; k < cpn; ++k)
      local_slots[k] = m.local_core(comm.core_of(ob * cpn + k));
    std::vector<int> new_local = local_slots;
    if (intra_mapper != nullptr)
      new_local = intra_mapper->checked_map(local_slots, intra_dist, rng);
    for (int k = 0; k < cpn; ++k)
      new_rank_to_core[nb * cpn + k] = m.core_id(node, new_local[k]);
  }
  check::verify_mapping("hierarchical composition", comm.rank_to_core(),
                        new_rank_to_core);
  return old_reordered_to(comm, std::move(new_rank_to_core));
}

/// The switch TopoAllgather filled its mapper cache with.
ReorderedComm old_reorder(ReorderFramework& fw, const Communicator& comm,
                          const TopoAllgatherConfig& cfg, Pattern pattern) {
  const bool intra_reorder = cfg.intra == IntraAlgo::Binomial;
  switch (cfg.mapper) {
    case MapperKind::Heuristic: {
      if (!cfg.hierarchical) return fw.reorder(comm, pattern);
      const auto leader = mapping::make_heuristic(pattern);
      std::unique_ptr<mapping::Mapper> intra;
      if (intra_reorder)
        intra = mapping::make_heuristic(cfg.hier_intra_pattern);
      return old_reorder_hierarchical(fw, comm, *leader, intra.get());
    }
    case MapperKind::ScotchLike: {
      const auto leader = mapping::make_scotch_like_mapper(pattern);
      if (!cfg.hierarchical) return fw.reorder_with(comm, *leader);
      const auto intra =
          mapping::make_scotch_like_mapper(cfg.hier_intra_pattern);
      return old_reorder_hierarchical(fw, comm, *leader,
                                      intra_reorder ? intra.get() : nullptr);
    }
    case MapperKind::GreedyGraph: {
      const auto leader = mapping::make_greedy_graph_mapper(pattern);
      if (!cfg.hierarchical) return fw.reorder_with(comm, *leader);
      const auto intra =
          mapping::make_greedy_graph_mapper(cfg.hier_intra_pattern);
      return old_reorder_hierarchical(fw, comm, *leader,
                                      intra_reorder ? intra.get() : nullptr);
    }
    case MapperKind::MvapichCyclic: {
      const auto mapper = mapping::make_mvapich_cyclic_mapper(
          comm.machine().cores_per_node());
      return fw.reorder_with(comm, *mapper);
    }
    case MapperKind::None:
      break;
  }
  throw Error("old_reorder: no mapper configured");
}

/// TopoAllgather's second cache: MVAPICH's baseline reorder.
std::optional<ReorderedComm> old_baseline(ReorderFramework& fw,
                                          const Communicator& comm) {
  if (!comm.node_contiguous()) return std::nullopt;
  const auto mapper =
      mapping::make_mvapich_cyclic_mapper(comm.machine().cores_per_node());
  ReorderedComm rc = fw.reorder_with(comm, *mapper);
  rc.mapping_seconds = 0.0;
  return rc;
}

/// TopoAllgather::latency over the two copies above.
Usec old_latency(ReorderFramework& fw, const Communicator& comm,
                 const TopoAllgatherConfig& cfg, Bytes msg) {
  const AllgatherAlgo algo = old_algo_for(comm, cfg, msg);
  std::optional<ReorderedComm> rc;
  OrderFix fix = OrderFix::None;
  if (cfg.mapper != MapperKind::None) {
    rc = old_reorder(fw, comm, cfg, old_pattern_of(algo));
    fix = cfg.fix;
  } else if (!cfg.hierarchical && algo == AllgatherAlgo::RecursiveDoubling) {
    rc = old_baseline(fw, comm);
  }
  const int p = comm.size();
  const std::vector<Rank> oldrank =
      rc ? rc->oldrank : identity_permutation(p);
  simmpi::Engine eng(rc ? rc->comm : comm, cfg.cost, simmpi::ExecMode::Timed,
                     msg, p);
  if (cfg.hierarchical) {
    collectives::run_hier_allgather(eng, {algo, cfg.intra, fix}, oldrank);
  } else {
    collectives::run_allgather(eng, {algo, fix}, oldrank);
  }
  return eng.total();
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

TEST(MapperTable, KeysAndLabels) {
  struct Want {
    MapperKind kind;
    const char* key;
    const char* label;
  };
  for (const Want& w : {Want{MapperKind::Heuristic, "heuristic", "Hrstc"},
                        Want{MapperKind::ScotchLike, "scotch", "Scotch"},
                        Want{MapperKind::GreedyGraph, "greedy", "Greedy"},
                        Want{MapperKind::MvapichCyclic, "mvapich-cyclic",
                             "MV-cyclic"}}) {
    EXPECT_STREQ(to_string(w.kind), w.label);
    const MapperRow* row = find_mapper(w.key);
    ASSERT_NE(row, nullptr) << w.key;
    EXPECT_EQ(row->kind, w.kind);
    EXPECT_NE(row->make(Pattern::Ring, 8), nullptr);
  }
  // None has a label and builds nothing; `tarr_reorder=disabled` selects it,
  // not a key.
  EXPECT_STREQ(to_string(MapperKind::None), "default");
  EXPECT_EQ(mapper_row(MapperKind::None).make(Pattern::Ring, 8), nullptr);
  for (const char* key : {"", "default", "none", "Hrstc", "bogus"})
    EXPECT_EQ(find_mapper(key), nullptr) << key;
}

// ---------------------------------------------------------------------------
// The grid
// ---------------------------------------------------------------------------

/// `f()`'s result, or nullopt when it throws tarr::Error.
template <class F>
auto attempt(F f) -> std::optional<std::remove_cvref_t<decltype(f())>> {
  try {
    return f();
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::string describe(int nodes, const TopoAllgatherConfig& cfg, int layout) {
  return "gpc" + std::to_string(nodes) + " " + to_string(cfg.mapper) +
         (cfg.hierarchical ? std::string(" hier ") +
                                 (cfg.intra == IntraAlgo::Binomial
                                      ? "binomial "
                                      : "linear ") +
                                 mapping::to_string(cfg.hier_intra_pattern)
                           : std::string(" flat")) +
         (cfg.fix == OrderFix::InitComm ? " initcomm " : " endshfl ") +
         simmpi::to_string(simmpi::all_layouts()[layout]);
}

/// Every mapper kind and order fix, flat and in the four hierarchical
/// variants.
std::vector<TopoAllgatherConfig> configs() {
  std::vector<TopoAllgatherConfig> out;
  for (MapperKind kind :
       {MapperKind::None, MapperKind::Heuristic, MapperKind::ScotchLike,
        MapperKind::GreedyGraph, MapperKind::MvapichCyclic})
    for (OrderFix fix : {OrderFix::InitComm, OrderFix::EndShuffle}) {
      TopoAllgatherConfig cfg;
      cfg.mapper = kind;
      cfg.fix = fix;
      out.push_back(cfg);
      cfg.hierarchical = true;
      for (IntraAlgo intra : {IntraAlgo::Binomial, IntraAlgo::Linear})
        for (Pattern ip : {Pattern::BinomialBcast, Pattern::BinomialGather}) {
          cfg.intra = intra;
          cfg.hier_intra_pattern = ip;
          out.push_back(cfg);
        }
    }
  return out;
}

void mix(std::uint64_t& digest, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (word >> (8 * byte)) & 0xffu;
    digest *= 1099511628211ull;
  }
}

/// A result, or a throw, into the digest.
void mix(std::uint64_t& digest, const std::optional<Usec>& t) {
  mix(digest, t ? std::bit_cast<std::uint64_t>(*t) : ~0ull);
}

TEST(MapperOracle, TableAndCacheReorderAsTheOldSwitch) {
  std::uint64_t digest = 1469598103934665603ull;
  int reorders = 0, baselines = 0, throws = 0;
  for (int nodes : {2, 3, 4, 8}) {
    const topology::Machine m = topology::Machine::gpc(nodes);
    ReorderFramework fw(m);
    for (int layout = 0; layout < 4; ++layout) {
      const Communicator comm(
          m, simmpi::make_layout(m, m.total_cores(),
                                 simmpi::all_layouts()[layout]));
      for (const TopoAllgatherConfig& cfg : configs()) {
        if (cfg.hierarchical && cfg.mapper == MapperKind::MvapichCyclic) {
          EXPECT_THROW((void)TopoAllgather(fw, comm, cfg), Error);
          continue;
        }
        TopoAllgather ta(fw, comm, cfg);
        const std::string what = describe(nodes, cfg, layout);
        for (Bytes msg : {Bytes(1024), Bytes(64 * 1024)}) {
          SCOPED_TRACE(what + " " + std::to_string(msg) + " B");
          if (cfg.mapper != MapperKind::None) {
            const auto now = attempt([&] { return ta.reordered_for(msg); });
            const auto then = attempt([&] {
              return old_reorder(fw, comm, cfg,
                                 old_pattern_of(old_algo_for(comm, cfg, msg)));
            });
            ASSERT_EQ(now.has_value(), then.has_value());
            if (now) {
              EXPECT_EQ(now->comm.rank_to_core(), then->comm.rank_to_core());
              EXPECT_EQ(now->oldrank, then->oldrank);
              ++reorders;
            } else {
              // The throw is not cached: the next call reorders again.
              EXPECT_THROW((void)ta.reordered_for(msg), Error);
              ++throws;
            }
          } else if (!cfg.hierarchical &&
                     old_algo_for(comm, cfg, msg) ==
                         AllgatherAlgo::RecursiveDoubling &&
                     comm.node_contiguous()) {
            ++baselines;
          }
          const auto lat = attempt([&] { return ta.latency(msg); });
          const auto old =
              attempt([&] { return old_latency(fw, comm, cfg, msg); });
          ASSERT_EQ(lat.has_value(), old.has_value());
          if (lat) {
            EXPECT_EQ(*lat, *old);
          }
          mix(digest, lat);
          mix(digest, attempt([&] { return ta.run_and_check(msg); }));
        }
        if (cfg.mapper == MapperKind::None) {
          EXPECT_EQ(ta.mapping_seconds(), 0.0) << what;
        }
      }
    }
  }
  // The grid reaches every arm: reorders, the baseline's reorders (RD at
  // 1 KiB on block layouts of 16, 32 and 64 ranks) and the reorders of
  // hierarchical configurations on node-cyclic layouts, which throw.
  EXPECT_EQ(reorders, 640);
  EXPECT_EQ(baselines, 12);
  EXPECT_EQ(throws, 384);
  // Recorded with the old switch and the separate baseline reorder.
  EXPECT_EQ(digest, 0x0b2bde98b0dcf4f3ull);
}

// ---------------------------------------------------------------------------
// The graph and hierarchical mappers
// ---------------------------------------------------------------------------

/// `now` and `then` are both results or both throws; results must place
/// and renumber ranks alike.  Returns whether they were results.
bool expect_same(const std::optional<ReorderedComm>& now,
                 const std::optional<ReorderedComm>& then) {
  EXPECT_EQ(now.has_value(), then.has_value());
  if (!now || !then) return false;
  EXPECT_EQ(now->comm.rank_to_core(), then->comm.rank_to_core());
  EXPECT_EQ(now->oldrank, then->oldrank);
  return true;
}

TEST(MapperOracle, GraphMapperReordersAsReorderForGraph) {
  using mapping::GraphMapper;
  int compared = 0;
  for (const auto& [nodes, rows, cols] :
       {std::tuple{4, 8, 4}, std::tuple{64, 32, 16}}) {
    const topology::Machine m = topology::Machine::gpc(nodes);
    ReorderFramework fw(m);
    const graph::WeightedGraph pattern = graph::stencil2d_pattern(rows, cols);
    for (const simmpi::LayoutSpec& spec : simmpi::all_layouts()) {
      const Communicator comm(
          m, simmpi::make_layout(m, pattern.num_vertices(), spec));
      for (auto engine :
           {GraphMapper::Engine::Bisection, GraphMapper::Engine::Greedy}) {
        const GraphMapper mapper(pattern, engine);
        const bool greedy = engine == GraphMapper::Engine::Greedy;
        SCOPED_TRACE("gpc" + std::to_string(nodes) + " " +
                     simmpi::to_string(spec) + " " + mapper.name());
        compared += expect_same(
            attempt([&] { return fw.reorder_with(comm, mapper); }),
            attempt([&] {
              return old_reorder_for_graph(fw, comm, pattern, greedy);
            }));
      }
    }
  }
  EXPECT_EQ(compared, 16);
}

TEST(MapperOracle, HierarchicalMapperReordersAsReorderHierarchical) {
  const auto bbmh = mapping::make_heuristic(Pattern::BinomialBcast);
  const auto bgmh = mapping::make_heuristic(Pattern::BinomialGather);
  const mapping::Mapper* intras[] = {bbmh.get(), bgmh.get(), nullptr};
  int compared = 0, throws = 0;
  for (const topology::NodeShape shape :
       {topology::NodeShape{}, topology::NodeShape{1, 1},
        topology::NodeShape{1, 3}, topology::NodeShape{2, 8, 2},
        topology::NodeShape{2, 16, 4}}) {
    for (int nodes = 1; nodes <= 8; ++nodes) {
      const topology::Machine m = topology::Machine::gpc(nodes, shape);
      const int cpn = m.cores_per_node();
      ReorderFramework fw(m);
      std::vector<Communicator> comms;
      for (const simmpi::LayoutSpec& spec : simmpi::all_layouts())
        comms.emplace_back(m, simmpi::make_layout(m, m.total_cores(), spec));
      // Node blocks out of node order, each block's local cores rotated by
      // its node id: every other node, last first (a partial node set),
      // and every node, odd ones first.
      const auto rotated = [&](const std::vector<NodeId>& order) {
        std::vector<CoreId> cores;
        for (NodeId n : order)
          for (int k = 0; k < cpn; ++k)
            cores.push_back(m.core_id(n, (k + n) % cpn));
        return Communicator(m, cores);
      };
      std::vector<NodeId> partial, odd_first;
      for (NodeId n = nodes - 1; n >= 0; n -= 2) partial.push_back(n);
      for (int parity : {1, 0})
        for (NodeId n = parity; n < nodes; n += 2) odd_first.push_back(n);
      comms.push_back(rotated(partial));
      comms.push_back(rotated(odd_first));
      for (MapperKind kind : {MapperKind::Heuristic, MapperKind::ScotchLike,
                              MapperKind::GreedyGraph})
        for (Pattern leader_pattern :
             {Pattern::RecursiveDoubling, Pattern::Ring}) {
          const auto leader = mapper_row(kind).make(leader_pattern, cpn);
          for (const mapping::Mapper* intra : intras)
            for (const Communicator& comm : comms) {
              SCOPED_TRACE("gpc" + std::to_string(nodes) + "x" +
                           std::to_string(cpn) + " " + leader->name() +
                           " intra " + (intra ? intra->name() : "none") +
                           " p=" + std::to_string(comm.size()));
              const bool ok = expect_same(
                  attempt([&] {
                    return fw.reorder_with(
                        comm, mapping::HierarchicalMapper(*leader, intra));
                  }),
                  attempt([&] {
                    return old_reorder_hierarchical(fw, comm, *leader, intra);
                  }));
              ok ? ++compared : ++throws;
            }
        }
    }
  }
  // Both arms are reached: block layouts and the rotated node sets reorder
  // where the leader admits their node count, and throw where it does not
  // (recursive doubling needs a power of two, the ring's pattern graph two
  // nodes); cyclic layouts of several nodes of several cores throw.
  EXPECT_EQ(compared, 2400);
  EXPECT_EQ(throws, 1920);
}

TEST(MapperOracle, HierarchicalMapperRejectsWhatIsNotWholeNodes) {
  const topology::Machine m = topology::Machine::gpc(2);
  ReorderFramework fw(m);
  const auto rmh = mapping::make_heuristic(Pattern::Ring);
  const mapping::HierarchicalMapper hier(*rmh, rmh.get());
  // A partly filled node.
  EXPECT_THROW(fw.reorder_with(Communicator(m, {0, 1, 2}), hier), Error);
  std::vector<CoreId> node0_and_half(12);
  std::iota(node0_and_half.begin(), node0_and_half.end(), 0);
  EXPECT_THROW(fw.reorder_with(Communicator(m, node0_and_half), hier), Error);
  // Whole nodes, but not node-contiguous: ranks alternate between nodes,
  // or the last ranks of the two blocks swap nodes (each block's last rank
  // then names a different node, so only the contiguity check sees it).
  const Communicator cyclic(
      m, simmpi::make_layout(m, 16,
                             {simmpi::NodeOrder::Cyclic,
                              simmpi::SocketOrder::Bunch}));
  EXPECT_THROW(fw.reorder_with(cyclic, hier), Error);
  const Communicator swapped(
      m, {0, 1, 2, 3, 4, 5, 6, 15, 8, 9, 10, 11, 12, 13, 14, 7});
  EXPECT_THROW(fw.reorder_with(swapped, hier), Error);
  // A slot outside the matrix.
  Rng rng(1);
  std::vector<int> slots(8);
  std::iota(slots.begin(), slots.end(), 16);
  EXPECT_THROW(hier.checked_map(slots, fw.distances(), rng), Error);
}

}  // namespace
}  // namespace tarr::core
