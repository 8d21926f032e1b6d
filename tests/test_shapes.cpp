// Shape-regression tests: the qualitative results of the paper's figures,
// pinned at a reduced scale (64 nodes, 512 processes) so the full suite
// stays fast.  If a model or heuristic change breaks one of these, the
// corresponding figure reproduction has regressed.  The Baselines tests
// check the same shapes in the perf gate's committed snapshots
// (bench/baselines), which the benches write at the paper's scale.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bench/sweep.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/topoallgather.hpp"
#include "prof/profiler.hpp"
#include "report/snapshot.hpp"
#include "simmpi/layout.hpp"

namespace tarr {
namespace {

using bench::improvement_percent;
using collectives::IntraAlgo;
using collectives::OrderFix;
using core::MapperKind;
using core::ReorderFramework;
using core::TopoAllgather;
using core::TopoAllgatherConfig;
using simmpi::LayoutSpec;
using simmpi::NodeOrder;
using simmpi::SocketOrder;
using topology::Machine;

class Shapes : public ::testing::Test {
 protected:
  Shapes() : machine_(Machine::gpc(64)), framework_(machine_) {}

  TopoAllgather path(const LayoutSpec& spec, MapperKind kind,
                     OrderFix fix = OrderFix::InitComm,
                     bool hier = false,
                     IntraAlgo intra = IntraAlgo::Binomial) {
    TopoAllgatherConfig cfg;
    cfg.mapper = kind;
    cfg.fix = fix;
    cfg.hierarchical = hier;
    cfg.intra = intra;
    return TopoAllgather(
        framework_,
        simmpi::Communicator(machine_,
                             simmpi::make_layout(machine_, 512, spec)),
        cfg);
  }

  double improvement(TopoAllgather& base, TopoAllgather& variant,
                     Bytes msg) {
    return improvement_percent(base.latency(msg), variant.latency(msg));
  }

  static constexpr LayoutSpec kBlockBunch{NodeOrder::Block,
                                          SocketOrder::Bunch};
  static constexpr LayoutSpec kBlockScatter{NodeOrder::Block,
                                            SocketOrder::Scatter};
  static constexpr LayoutSpec kCyclicBunch{NodeOrder::Cyclic,
                                           SocketOrder::Bunch};
  static constexpr Bytes kSmall = 1024;        // recursive-doubling regime
  static constexpr Bytes kLarge = 128 * 1024;  // ring regime

  Machine machine_;
  ReorderFramework framework_;
};

TEST_F(Shapes, Fig3a_RdmhGainsGrowWithSizeOnBlockBunch) {
  auto base = path(kBlockBunch, MapperKind::None);
  auto h = path(kBlockBunch, MapperKind::Heuristic);
  const double small = improvement(base, h, 256);
  const double mid = improvement(base, h, 8 * 1024);
  EXPECT_GT(small, 20.0);
  EXPECT_GT(mid, small);  // improvement increases with message size
  EXPECT_GT(mid, 50.0);   // the paper's "up to ~67%" band
  EXPECT_LT(mid, 85.0);
}

TEST_F(Shapes, Fig3a_RingOnBlockBunchDoesNotDegrade) {
  auto base = path(kBlockBunch, MapperKind::None);
  auto h = path(kBlockBunch, MapperKind::Heuristic);
  EXPECT_NEAR(improvement(base, h, kLarge), 0.0, 0.5);
}

TEST_F(Shapes, Fig3c_RingOnCyclicGainsLarge) {
  auto base = path(kCyclicBunch, MapperKind::None);
  auto h = path(kCyclicBunch, MapperKind::Heuristic);
  const double impr = improvement(base, h, kLarge);
  EXPECT_GT(impr, 60.0);  // the paper's "up to 78%" band
  EXPECT_LT(impr, 95.0);
}

TEST_F(Shapes, Fig3_ScotchDegradesFlatRd) {
  auto base = path(kBlockBunch, MapperKind::None);
  auto s = path(kBlockBunch, MapperKind::ScotchLike);
  EXPECT_LT(improvement(base, s, kSmall), -50.0);
}

TEST_F(Shapes, Fig3_InitCommBeatsEndShuffle) {
  auto base = path(kCyclicBunch, MapperKind::None);
  auto ic = path(kCyclicBunch, MapperKind::Heuristic, OrderFix::InitComm);
  auto es = path(kCyclicBunch, MapperKind::Heuristic, OrderFix::EndShuffle);
  EXPECT_GT(improvement(base, ic, kSmall), improvement(base, es, kSmall));
}

TEST_F(Shapes, Fig4a_HierBlockBunchLargeIsNeutral) {
  auto base = path(kBlockBunch, MapperKind::None, OrderFix::InitComm, true);
  auto h = path(kBlockBunch, MapperKind::Heuristic, OrderFix::InitComm, true);
  EXPECT_NEAR(improvement(base, h, kLarge), 0.0, 3.0);
}

TEST_F(Shapes, Fig4b_HierBlockScatterLargeGains) {
  auto base = path(kBlockScatter, MapperKind::None, OrderFix::InitComm, true);
  auto h =
      path(kBlockScatter, MapperKind::Heuristic, OrderFix::InitComm, true);
  EXPECT_GT(improvement(base, h, kLarge), 2.0);  // paper: ~3%
}

TEST_F(Shapes, Fig4cd_HierLinearLargeIsNeutral) {
  auto base = path(kBlockBunch, MapperKind::None, OrderFix::InitComm, true,
                   IntraAlgo::Linear);
  auto h = path(kBlockBunch, MapperKind::Heuristic, OrderFix::InitComm, true,
                IntraAlgo::Linear);
  EXPECT_NEAR(improvement(base, h, kLarge), 0.0, 3.0);
}

TEST_F(Shapes, Fig4_HierGainsLowerThanFlatForSmall) {
  auto flat_base = path(kBlockBunch, MapperKind::None);
  auto flat_h = path(kBlockBunch, MapperKind::Heuristic);
  auto hier_base =
      path(kBlockBunch, MapperKind::None, OrderFix::InitComm, true);
  auto hier_h =
      path(kBlockBunch, MapperKind::Heuristic, OrderFix::InitComm, true);
  EXPECT_LE(improvement(hier_base, hier_h, kSmall),
            improvement(flat_base, flat_h, kSmall) + 1.0);
}

TEST_F(Shapes, Fig7_HeuristicsNotSlowerThanScotchLike) {
  // Mapping work in deterministic counters: the heuristic's free-slot scan
  // steps against the graph mapper's bisection swap evaluations.
  auto work = [this](MapperKind kind, const char* counter) {
    auto p = path(kBlockBunch, kind);
    prof::Profiler profiler;
    {
      obs::Install guard(&profiler);
      p.latency(kSmall);
    }
    return profiler.snapshot().counter_total(counter);
  };
  const double h = work(MapperKind::Heuristic, "mapping.scan_steps");
  const double s = work(MapperKind::ScotchLike, "bisection.swap_evals");
  EXPECT_GT(h, 0.0);
  // A scan step is one free slot considered: read one by one (a distance
  // load and compare) or settled from its pool block's cluster free count,
  // plus its tie-break draw if it ties the minimum.  A swap evaluation
  // prices a vertex pair, reading its edge weight from a dense row of one
  // vertex's adjacency.  At this size on an x86-64 host (RelWithDebInfo)
  // RDMH spends ~3-5 ns per scan step (36% of them reads) and the graph
  // mapper ~41-46 ns per swap evaluation for recursive doubling, ~16-18 ns
  // for the ring, graph build included.  Pricing a swap evaluation at a
  // conservative 5 scan steps: same order of magnitude at worst, the graph
  // mapper must not be cheaper by more than ~2x.
  constexpr double kScanStepsPerSwapEval = 5.0;
  EXPECT_LT(h, 2.0 * kScanStepsPerSwapEval * s);
}

report::BenchSnapshot baseline(const std::string& bench) {
  return report::load_snapshot(std::string(TARR_BASELINE_DIR) + "/BENCH_" +
                               bench + ".json");
}

double metric(const report::BenchSnapshot& s, const std::string& name) {
  const report::BenchMetric* m = s.find(name);
  if (m == nullptr) throw Error(s.bench + ": no metric " + name);
  return m->value;
}

TEST(Baselines, AllAtPaperScale) {
  for (const auto& s : report::load_snapshot_set(TARR_BASELINE_DIR))
    EXPECT_EQ(s.config, "full") << s.bench;
}

TEST(Baselines, Fig3Fig4HeuristicImprovesEveryLayout) {
  for (const char* bench : {"fig3_nonhier", "fig4_hier"}) {
    int gains = 0;
    for (const auto& m : baseline(bench).metrics) {
      if (!report::glob_match("*.hrstc_initcomm_mean_improvement", m.name))
        continue;
      EXPECT_GT(m.value, 0.0) << bench << " " << m.name;
      ++gains;
    }
    EXPECT_EQ(gains, 4) << bench;
  }
}

TEST(Baselines, Fig3CyclicLayoutsGainMoreThanBlock) {
  const auto s = baseline("fig3_nonhier");
  const std::string gain = ".hrstc_initcomm_mean_improvement";
  for (const char* cyclic : {"cyclic-bunch", "cyclic-scatter"})
    for (const char* block : {"block-bunch", "block-scatter"})
      EXPECT_GT(metric(s, cyclic + gain), metric(s, block + gain))
          << cyclic << " vs " << block;
}

TEST(Baselines, Fig3EndShflTrailsInitCommAboveTwoBytes) {
  // §V-B on the Hrstc path: endShfl is ahead only at 1 B and 2 B, trails
  // by a double-digit plateau through the RD regime, and ties once the
  // ring, which needs no fix, takes over.
  const auto s = baseline("fig3_nonhier");
  for (const auto& spec : simmpi::all_layouts()) {
    const std::string layout = simmpi::to_string(spec);
    EXPECT_EQ(metric(s, layout + ".endshfl_wins"), 2.0) << layout;
    EXPECT_GT(metric(s, layout + ".endshfl_peak_penalty"), 10.0) << layout;
    EXPECT_EQ(metric(s, layout + ".endshfl_ring_penalty"), 0.0) << layout;
  }
}

TEST(Baselines, ContentionCarriesTheAblationGain) {
  const auto s = baseline("abl_contention");
  EXPECT_GT(metric(s, "mean_improvement_contention"),
            metric(s, "mean_improvement_no_contention"));
}

TEST(Baselines, AblHierIntraBbmhIsTheIntraDefault) {
  // TopoAllgatherConfig::hier_intra_pattern: BBMH gains at least as much as
  // BGMH at every gated point, and on block-bunch at 256 KiB BGMH loses
  // more than 10 % while BBMH stays within 1 %.
  const auto s = baseline("abl_hier_intra");
  for (const char* layout : {"block-bunch", "block-scatter"})
    for (const char* at : {"64B", "256KiB"}) {
      const std::string key = std::string(layout) + ".";
      EXPECT_GE(metric(s, key + "bbmh_improvement_" + at),
                metric(s, key + "bgmh_improvement_" + at))
          << layout << " " << at;
    }
  EXPECT_LT(metric(s, "block-bunch.bgmh_improvement_256KiB"), -10.0);
  EXPECT_LE(std::fabs(metric(s, "block-bunch.bbmh_improvement_256KiB")), 1.0);
}

TEST(Baselines, AblSeedsMoveRdmhUnderHalfAPointAndRmhNotAtAll) {
  // 4,096 cyclic-scatter ranks under tie-break seeds 1-16: RDMH's 1 KiB gain
  // stays within 66.7-67.9% with a standard deviation of at most 0.35 pp,
  // and RMH's 64 KiB gain reads 78.41% under every seed.
  StatAccumulator rdmh;
  int rmh = 0;
  for (const auto& m : baseline("abl_seeds").metrics) {
    if (report::glob_match("rdmh_1KiB.seed_*", m.name)) {
      EXPECT_GE(m.value, 66.7) << m.name;
      EXPECT_LE(m.value, 67.9) << m.name;
      rdmh.add(m.value);
    } else if (report::glob_match("rmh_64KiB.seed_*", m.name)) {
      EXPECT_NEAR(m.value, 78.41, 0.005) << m.name;
      ++rmh;
    }
  }
  EXPECT_EQ(rdmh.count(), 16);
  EXPECT_LE(rdmh.stddev(), 0.35);
  EXPECT_EQ(rmh, 16);
}

TEST(Baselines, AblRdmhRefcoreAdvancesEverySecondPlacement) {
  // Algorithm 2: advancing the reference after every placement or every
  // second one maps the same; every fourth or never costs at least 5x the
  // weighted distance and 10x the recursive-doubling latency.
  const auto s = baseline("abl_rdmh_refcore");
  const std::string paper = "period_2.";
  for (const char* c : {"weighted_cost", "rd_1KiB", "rd_16KiB"})
    EXPECT_EQ(metric(s, std::string("period_1.") + c), metric(s, paper + c))
        << c;
  for (const char* period : {"period_4.", "period_never."}) {
    const std::string key = period;
    EXPECT_GE(metric(s, key + "weighted_cost"),
              5.0 * metric(s, paper + "weighted_cost"))
        << period;
    for (const char* at : {"rd_1KiB", "rd_16KiB"})
      EXPECT_GE(metric(s, key + at), 10.0 * metric(s, paper + at))
          << period << at;
  }
}

TEST(Baselines, AblBbmhTraversalSmallSubtreeFirstWins) {
  // §V-A3: the small-subtree-first traversal has the lowest weighted cost
  // and bcast latency of the four rows, and every other row is at least 4x
  // slower.
  const auto s = baseline("abl_bbmh_traversal");
  const std::string best = "small_subtree_first.";
  for (const char* row : {"initial.", "large_subtree_first.", "level_order."}) {
    const std::string key = row;
    EXPECT_GT(metric(s, key + "weighted_cost"),
              metric(s, best + "weighted_cost"))
        << row;
    EXPECT_GE(metric(s, key + "bcast_64KiB"),
              4.0 * metric(s, best + "bcast_64KiB"))
        << row;
  }
}

TEST(Baselines, AblScotchWeightsVolumeWeightsRecoverRdmh) {
  // Divergence D1's ablation, the recursive-doubling pattern over 4,096
  // block-bunch ranks: structure-only bisection lands below the initial
  // mapping but within 10% of it; with volume weights the Scotch-like
  // mapper comes within 1% of RDMH, at most 0.15x structure-only.
  const auto s = baseline("abl_scotch_weights");
  const double initial = metric(s, "initial.weighted_cost");
  const double structural = metric(s, "structure_only.weighted_cost");
  const double weighted = metric(s, "volume_weighted.weighted_cost");
  const double rdmh = metric(s, "rdmh.weighted_cost");
  EXPECT_LT(structural, initial);
  EXPECT_GE(structural, 0.9 * initial);
  EXPECT_LE(std::abs(weighted - rdmh), 0.01 * rdmh);
  EXPECT_LE(weighted, 0.15 * structural);
}

TEST(Baselines, ExtCongestionRmhRelievesTheHottestCable) {
  // The 64 KiB ring allgather over 4,096 cyclic-bunch ranks: the RMH
  // reorder cuts the hottest cable's per-stage load at least 8x and the
  // latency at least 4x.
  const auto s = baseline("ext_congestion");
  EXPECT_GE(metric(s, "cyclic.peak_link_load"),
            8.0 * metric(s, "rmh.peak_link_load"));
  EXPECT_GE(metric(s, "cyclic.ring_64KiB"),
            4.0 * metric(s, "rmh.ring_64KiB"));
}

TEST(Baselines, ExtBruckAllreduceBkmhGainsAndRabenseifnerWins) {
  // Bruck allgather over 3,000 cyclic-bunch ranks: BKMH gains 30-40% at
  // every size from 64 B to 16 KiB.  Full-vector RD allreduce over 4,096
  // block-bunch ranks is host-link-bound, so RDMH stays within 1% of the
  // default; Rabenseifner is at least 20x faster than RD+RDMH at 1 MiB.
  const auto s = baseline("ext_bruck_allreduce");
  int bruck = 0;
  int allreduce = 0;
  for (const auto& m : s.metrics) {
    if (report::glob_match("bruck_*.improvement", m.name)) {
      EXPECT_GE(m.value, 30.0) << m.name;
      EXPECT_LE(m.value, 40.0) << m.name;
      ++bruck;
    }
    if (report::glob_match("allreduce_*.rd_rdmh", m.name)) {
      const std::string size = m.name.substr(0, m.name.find('.'));
      EXPECT_LE(std::fabs(m.value / metric(s, size + ".rd_default") - 1.0),
                0.01)
          << m.name;
      ++allreduce;
    }
  }
  EXPECT_EQ(bruck, 9);      // 64 B to 16 KiB
  EXPECT_EQ(allreduce, 4);  // 1 KiB, 16 KiB, 256 KiB, 1 MiB
  EXPECT_GE(metric(s, "allreduce_1MiB.rd_rdmh"),
            20.0 * metric(s, "allreduce_1MiB.rabenseifner_rdmh"));
}

TEST(Baselines, ExtApppatternBisectionTilesTheStencil) {
  // One 64x64 halo round over 4,096 ranks: recursive bipartitioning gains
  // 68-70% on both cyclic layouts and never loses on the block ones, where
  // the greedy mapper's row packing loses more than half.
  const auto s = baseline("ext_apppattern");
  for (const auto& spec : simmpi::all_layouts()) {
    const std::string layout = simmpi::to_string(spec);
    const bool cyclic = spec.node == NodeOrder::Cyclic;
    for (const char* size : {"4KiB", "64KiB"}) {
      const double bisection =
          metric(s, layout + ".bisection_improvement_" + size);
      if (cyclic) {
        EXPECT_GE(bisection, 68.0) << layout << " " << size;
        EXPECT_LE(bisection, 70.0) << layout << " " << size;
        continue;
      }
      EXPECT_GE(bisection, 0.0) << layout << " " << size;
      EXPECT_LT(metric(s, layout + ".greedy_improvement_" + size), 0.0)
          << layout << " " << size;
    }
  }
}

TEST(Baselines, ExtAsyncModelBoundsTheSynchronizationError) {
  // The allgathers over 512 block-bunch ranks without contention, replayed
  // on per-rank clocks: recursive doubling synchronizes globally, so both
  // models agree within 0.1%; the ring pipelines, with positive headroom at
  // both sizes and more of it at 4 KiB than at 64 KiB.
  const auto s = baseline("ext_async_model");
  for (const char* size : {"4KiB", "64KiB"}) {
    const std::string at = size;
    EXPECT_LE(std::fabs(metric(s, "rd_" + at + ".headroom")), 0.1) << size;
    EXPECT_GT(metric(s, "ring_" + at + ".headroom"), 0.0) << size;
  }
  EXPECT_GT(metric(s, "ring_4KiB.headroom"), metric(s, "ring_64KiB.headroom"));
}

TEST(Baselines, ExtPipelineOverlapGainsAFurther41To45Percent) {
  // The hierarchical allgather over 4,096 block-bunch ranks with ring
  // leaders and binomial intra phases: overlapping the leader ring with the
  // intra-node broadcasts gains 41-45% at every size from 4 KiB to 256 KiB,
  // and the RMH+BBMH reordering keeps the pipelined run within 1%.
  const auto s = baseline("ext_pipeline");
  int sizes = 0;
  for (const auto& m : s.metrics) {
    if (!report::glob_match("*.overlap_gain", m.name)) continue;
    EXPECT_GE(m.value, 41.0) << m.name;
    EXPECT_LE(m.value, 45.0) << m.name;
    const std::string size = m.name.substr(0, m.name.find('.'));
    EXPECT_LE(std::fabs(metric(s, size + ".pipelined_hrstc") /
                            metric(s, size + ".pipelined") -
                        1.0),
              0.01)
        << size;
    ++sizes;
  }
  EXPECT_EQ(sizes, 4);  // 4 KiB, 16 KiB, 64 KiB, 256 KiB
}

TEST(Baselines, ExtBigsmpBbmhGainsAtEverySizeAndBeatsBgmh) {
  // The hierarchical allgather over 4,096 block-scatter ranks on 32-core
  // nodes (two sockets of four L3 complexes): BBMH intra gains 27.5-46.9%
  // as printed (27.45% at 1 KiB) at all 13 sizes from 64 B to 256 KiB, and
  // more than BGMH intra at every size.
  const auto s = baseline("ext_bigsmp");
  int sizes = 0;
  for (const auto& m : s.metrics) {
    if (!report::glob_match("*.bbmh_improvement", m.name)) continue;
    EXPECT_GE(m.value, 27.4) << m.name;
    EXPECT_LE(m.value, 46.9) << m.name;
    const std::string size = m.name.substr(0, m.name.find('.'));
    EXPECT_GT(m.value, metric(s, size + ".bgmh_improvement")) << size;
    ++sizes;
  }
  EXPECT_EQ(sizes, 13);  // 64 B to 256 KiB
}

TEST(Baselines, Fig5HeuristicNeverSlowerAndBeatsScotch) {
  const auto s = baseline("fig5_app_nonhier");
  for (const auto& spec : simmpi::all_layouts()) {
    const std::string layout = simmpi::to_string(spec);
    const double hrstc = metric(s, layout + ".Hrstc_normalized_sim");
    EXPECT_LE(hrstc, 1.0) << layout;
    EXPECT_LT(hrstc, metric(s, layout + ".Scotch_normalized_sim")) << layout;
  }
}

TEST(Baselines, Fig8ProbedRingBeatsIdentity) {
  int gains = 0;
  for (const auto& m : baseline("fig8_probed").metrics) {
    if (!report::glob_match("gain_pct_ring-allreduce_*", m.name)) continue;
    EXPECT_GT(m.value, 0.0) << m.name;
    ++gains;
  }
  EXPECT_EQ(gains, 3);  // one per noise level
}

}  // namespace
}  // namespace tarr
