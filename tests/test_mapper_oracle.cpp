// The mapper table (core/mappers.hpp) and TopoAllgather's one reorder cache
// against the code they replaced.  The table's keys and labels are pinned.
// Copies of TopoAllgather's old reorder switch (with ReorderFramework's old
// pattern-taking reorder_hierarchical inlined into its heuristic arm) and
// of its separate MVAPICH-baseline reorder run beside the TopoAllgather
// each configuration builds now, over every mapper kind; flat and
// hierarchical runs, the latter with binomial and linear intra phases and
// BBMH and BGMH intra patterns; both order fixes; the four layouts; GPC 2,
// 3, 4 and 8 nodes; and 1 KiB and 64 KiB blocks:
//   - reordered_for() places and renumbers ranks as the old switch did, or
//     throws where it threw, also on the call after a throw;
//   - latency() prices what the old code priced;
//   - an FNV-1a digest of every latency() and run_and_check() result (a
//     throw counted as one) matches the digest recorded with the old code;
//   - the MVAPICH-default baseline never charges mapping time.

#include "core/topoallgather.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "collectives/selector.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
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
      return fw.reorder_hierarchical(comm, *leader, intra.get());
    }
    case MapperKind::ScotchLike: {
      const auto leader = mapping::make_scotch_like_mapper(pattern);
      if (!cfg.hierarchical) return fw.reorder_with(comm, *leader);
      const auto intra =
          mapping::make_scotch_like_mapper(cfg.hier_intra_pattern);
      return fw.reorder_hierarchical(comm, *leader,
                                     intra_reorder ? intra.get() : nullptr);
    }
    case MapperKind::GreedyGraph: {
      const auto leader = mapping::make_greedy_graph_mapper(pattern);
      if (!cfg.hierarchical) return fw.reorder_with(comm, *leader);
      const auto intra =
          mapping::make_greedy_graph_mapper(cfg.hier_intra_pattern);
      return fw.reorder_hierarchical(comm, *leader,
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

}  // namespace
}  // namespace tarr::core
