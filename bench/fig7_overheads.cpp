// Fig 7 regeneration: the two overhead components of run-time rank
// reordering, measured in wall-clock seconds on this machine:
//   (a) one-time physical distance extraction, for 1024/2048/4096 processes
//       (the paper reports linear scaling, ~3.3 s at 4096 on GPC);
//   (b) time spent by the mapping algorithm itself — the paper's fine-tuned
//       heuristics vs the general-purpose graph mappers (Scotch-like, and
//       additionally the Hoefler-Snir-style greedy), per pattern.
//
// Section (c) is the tarr::prof scaling-curve harness: the same phases
// measured in *deterministic work counters* (distance cells, free-slot scan
// steps and reads, bisection growing steps and swap evaluations, priced
// transfers) swept over rank counts and fitted to a power law.  Unlike
// (a)/(b) these metrics are byte-stable across machines, so they are gated
// in the perf snapshot; the fitted exponents are the empirical-complexity
// baseline recorded in docs/OBSERVABILITY.md.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/fixtures.hpp"
#include "common/permutation.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/refine.hpp"
#include "mapping/comparators.hpp"
#include "mapping/heuristics.hpp"
#include "prof/prof.hpp"
#include "simmpi/layout.hpp"
#include "topology/distance.hpp"

namespace {

using namespace tarr;

/// Median wall time of `reps` calls of `m`, seeds 1..reps, after one
/// untimed warm-up call (seed 1).
double time_mapper(const mapping::Mapper& m, const std::vector<int>& initial,
                   const topology::DistanceMatrix& d, int reps) {
  Rng warm_up(1);
  // Every result is tested so that no call can be optimized away.
  if (m.map(initial, d, warm_up).empty()) std::abort();
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    Rng rng(1 + r);
    WallTimer t;
    const auto result = m.map(initial, d, rng);
    seconds.push_back(t.seconds());
    if (result.empty()) std::abort();
  }
  std::nth_element(seconds.begin(), seconds.begin() + reps / 2,
                   seconds.end());
  return seconds[reps / 2];
}

/// Run `body` under a fresh ambient profiler and return its counter profile.
prof::Profile profile_phase(const std::function<void()>& body) {
  prof::Profiler profiler;
  obs::Install guard(&profiler);
  body();
  return profiler.snapshot();
}

}  // namespace

int main() {
  using namespace tarr::bench;

  // Sections (a) and (b) measure wall-clock on the host machine, so their
  // snapshot metrics are gate=false: the trajectory is worth charting, but
  // CI machines are far too noisy to fail a build over it.
  const std::vector<int> node_counts = {128, 256, 512};
  SnapshotEmitter snapshot("fig7_overheads");
  snapshot.set_meta("max_nodes", std::to_string(node_counts.back()));

  std::printf("Fig 7(a) — one-time distance extraction overhead\n");
  TextTable ta;
  ta.set_header({"processes", "nodes", "extraction(s)"});
  for (int nodes : node_counts) {
    const topology::Machine m = topology::Machine::gpc(nodes);
    WallTimer t;
    const auto d = topology::extract_distances(m);
    const double secs = t.seconds();
    ta.add_row({std::to_string(nodes * 8), std::to_string(nodes),
                TextTable::num(secs, 3)});
    snapshot.add_metric("extraction_s.n" + std::to_string(nodes), secs,
                        "seconds", /*higher_is_better=*/false,
                        /*gate=*/false);
    if (d.size() != m.total_cores()) return 1;
  }
  std::printf("%s\n", ta.render().c_str());

  std::printf(
      "Fig 7(b) — mapping algorithm overhead (seconds, median of 5 after a "
      "warm-up)\n");
  TextTable tb;
  tb.set_header({"processes", "pattern", "heuristic", "greedy-graph",
                 "scotch-like"});
  for (int nodes : node_counts) {
    const int p = nodes * 8;
    const topology::Machine m = topology::Machine::gpc(nodes);
    const auto dist = topology::extract_distances(m);
    const auto cores = simmpi::make_layout(m, p, simmpi::LayoutSpec{});
    const std::vector<int> initial(cores.begin(), cores.end());

    for (auto pattern :
         {mapping::Pattern::RecursiveDoubling, mapping::Pattern::Ring}) {
      const auto heuristic = mapping::make_heuristic(pattern);
      const auto greedy = mapping::make_greedy_graph_mapper(pattern);
      const auto scotch = mapping::make_scotch_like_mapper(pattern);
      const double h = time_mapper(*heuristic, initial, dist, 5);
      const double g = time_mapper(*greedy, initial, dist, 5);
      const double s = time_mapper(*scotch, initial, dist, 5);
      const std::string key = std::string(mapping::to_string(pattern)) + ".n" +
                              std::to_string(nodes);
      snapshot.add_metric("heuristic_s." + key, h, "seconds",
                          /*higher_is_better=*/false, /*gate=*/false);
      snapshot.add_metric("greedy_s." + key, g, "seconds",
                          /*higher_is_better=*/false, /*gate=*/false);
      snapshot.add_metric("scotch_s." + key, s, "seconds",
                          /*higher_is_better=*/false, /*gate=*/false);
      tb.add_row({std::to_string(p), mapping::to_string(pattern),
                  TextTable::num(h, 4), TextTable::num(g, 4),
                  TextTable::num(s, 4)});
    }
  }
  std::printf("%s\n", tb.render().c_str());

  // (c) Scaling curves: deterministic per-phase work counters (tarr::prof).
  // Each phase runs under its own fresh profiler so its counters are not
  // polluted by the others; the tracked counter per phase is the one that
  // dominates its asymptotic cost.  All of these are gate=true — they are
  // exact integers, identical on every machine.
  std::printf("Fig 7(c) — scaling curves (deterministic work counters)\n");
  const std::vector<std::pair<std::string, std::string>> phases = {
      {"distance-extraction", "distance.cells"},
      {"bisection", "bisection.swap_evals"},
      {"refinement", "cost.transfers_priced"},
      {"engine-pricing", "cost.transfers_priced"},
      // Node-pair routes the cost model walks: below transfers_priced,
      // because the core pairs of one node pair share one walk.
      {"engine-pricing", "cost.routes_walked"},
      // Algorithm 1 step 5: slots considered, and pool entries read one by
      // one (the rest settled from cluster free counts).
      {"heuristic", "mapping.scan_steps"},
      {"heuristic", "mapping.scan_reads"},
      // The greedy growing loop of each bisection.
      {"bisection", "bisection.grow_steps"},
  };
  std::map<std::string, std::vector<prof::ScalingPoint>> curves;
  for (int nodes : node_counts) {
    const int p = nodes * 8;
    const topology::Machine m = topology::Machine::gpc(nodes);
    const auto dist = topology::extract_distances(m);
    const auto cores = simmpi::make_layout(m, p, simmpi::LayoutSpec{});
    const std::vector<int> initial(cores.begin(), cores.end());
    const simmpi::Communicator comm(m, cores);
    const auto objective = core::allgather_objective(
        collectives::AllgatherAlgo::RecursiveDoubling, 8 * 1024,
        collectives::OrderFix::None, simmpi::CostConfig{});

    std::map<std::string, prof::Profile> by_phase;
    by_phase["distance-extraction"] = profile_phase([&] {
      if (topology::extract_distances(m).size() != m.total_cores())
        std::abort();
    });
    by_phase["heuristic"] = profile_phase([&] {
      const auto rdmh =
          mapping::make_heuristic(mapping::Pattern::RecursiveDoubling);
      Rng rng(1);
      if (rdmh->map(initial, dist, rng).empty()) std::abort();
    });
    by_phase["bisection"] = profile_phase([&] {
      const auto scotch =
          mapping::make_scotch_like_mapper(mapping::Pattern::RecursiveDoubling);
      Rng rng(1);
      if (scotch->map(initial, dist, rng).empty()) std::abort();
    });
    by_phase["engine-pricing"] = profile_phase([&] {
      if (objective(comm, identity_permutation(p)) <= 0.0) std::abort();
    });
    by_phase["refinement"] = profile_phase([&] {
      core::RefineOptions ropts;
      ropts.max_swaps = 32;  // bounded search: work scales with rank count
      ropts.seed = 1;
      const core::ReorderedComm start{comm, identity_permutation(p), 0.0};
      core::refine_by_simulation(comm, start, objective, ropts);
    });

    for (const auto& [phase, counter] : phases) {
      const double v = by_phase[phase].counter_total(counter);
      snapshot.add_metric(
          "prof." + phase + "." + counter + ".n" + std::to_string(nodes), v,
          "count", /*higher_is_better=*/false, /*gate=*/true);
      curves[phase + "." + counter].push_back(
          prof::ScalingPoint{static_cast<double>(p), v});
    }
  }

  TextTable tc;
  tc.set_header({"phase", "counter", "exponent", "r^2", "empirical"});
  for (const auto& [phase, counter] : phases) {
    const auto& pts = curves[phase + "." + counter];
    const prof::PowerFit fit = prof::fit_power_law(pts);
    tc.add_row({phase, counter,
                fit.valid ? TextTable::num(fit.exponent, 2) : "n/a",
                fit.valid ? TextTable::num(fit.r2, 3) : "n/a",
                prof::classify_complexity(fit)});
    if (fit.valid)
      snapshot.add_metric("prof." + phase + "." + counter + ".exponent",
                          fit.exponent, "exponent",
                          /*higher_is_better=*/false, /*gate=*/true);
  }
  std::printf("%s\n", tc.render().c_str());

  snapshot.dump();

  std::printf(
      "Note: the paper reports ~3.3 s extraction, growing linearly with p,\n"
      "and ~4 ms heuristic mapping at 4096 ranks on GPC hardware; absolute\n"
      "values here reflect this machine.  Extraction here fills N^2 + c^2\n"
      "cells, quadratic in nodes once N^2 dominates (the distance.cells\n"
      "exponent above).  The reproduced shape is heuristic <= scotch-like:\n"
      "by work counters at every size, by wall time for recursive doubling;\n"
      "the ring's bisection is cheaper than RMH from 2048 ranks on\n"
      "(EXPERIMENTS.md D5).\n");
  return 0;
}
