#include "probe/scenario.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "bench/csv.hpp"
#include "collectives/allreduce.hpp"
#include "collectives/alltoall.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fault/degraded.hpp"
#include "mapping/mapper.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"

namespace tarr::probe {

const char* to_string(ScenarioPattern p) {
  switch (p) {
    case ScenarioPattern::RingAllreduce:
      return "ring-allreduce";
    case ScenarioPattern::Alltoall:
      return "alltoall";
  }
  return "?";
}

void validate(const ScenarioConfig& cfg) {
  TARR_REQUIRE(cfg.num_nodes >= 1, "scenario: num_nodes must be >= 1");
  TARR_REQUIRE(cfg.max_ranks >= 0, "scenario: max_ranks must be >= 0");
  TARR_REQUIRE(cfg.block_bytes >= 1, "scenario: block_bytes must be >= 1");
  TARR_REQUIRE(cfg.epochs >= 1, "scenario: epochs must be >= 1");
  topology::validate(cfg.tree);
  validate(cfg.congestion);
  validate(cfg.controller);
}

double PatternSummary::probed_gain_pct() const {
  return identity_mean > 0.0
             ? 100.0 * (identity_mean - probed_mean) / identity_mean
             : 0.0;
}

double PatternSummary::oracle_gap_pct() const {
  return oracle_mean > 0.0 ? 100.0 * (probed_mean - oracle_mean) / oracle_mean
                           : 0.0;
}

namespace {

/// The collectives every scenario prices, in report order.
constexpr ScenarioPattern kPatterns[] = {ScenarioPattern::RingAllreduce,
                                         ScenarioPattern::Alltoall};

/// oldrank[j] = position of mapping[j] in the baseline slot order.
std::vector<Rank> oldrank_of(const std::vector<int>& slots,
                             const std::vector<int>& mapping, int total_cores) {
  std::vector<Rank> pos(static_cast<std::size_t>(total_cores), -1);
  for (std::size_t i = 0; i < slots.size(); ++i)
    pos[static_cast<std::size_t>(slots[i])] = static_cast<Rank>(i);
  std::vector<Rank> oldrank(mapping.size());
  for (std::size_t j = 0; j < mapping.size(); ++j) {
    TARR_REQUIRE(pos[static_cast<std::size_t>(mapping[j])] >= 0,
                 "scenario: mapping returned a core outside the slot set");
    oldrank[j] = pos[static_cast<std::size_t>(mapping[j])];
  }
  return oldrank;
}

/// Price one collective run of `mapping` on the congested fabric.
Usec price_run(const ScenarioConfig& cfg, const fault::DegradedTopology& topo,
               ScenarioPattern pat, const std::vector<int>& mapping,
               const std::vector<Rank>& oldrank, trace::TraceSink* sink) {
  const int p = static_cast<int>(mapping.size());
  simmpi::Communicator comm(topo.machine(),
                            std::vector<CoreId>(mapping.begin(), mapping.end()));
  const int buf_blocks = pat == ScenarioPattern::Alltoall ? 2 * p : p;
  simmpi::Engine eng(comm, cfg.cost, simmpi::ExecMode::Timed, cfg.block_bytes,
                     buf_blocks);
  eng.set_trace_sink(sink);
  switch (pat) {
    case ScenarioPattern::RingAllreduce:
      return collectives::run_allreduce_ring(eng);
    case ScenarioPattern::Alltoall:
      return collectives::run_alltoall(
          eng, collectives::AlltoallAlgo::Rotation, oldrank);
  }
  return 0.0;
}

}  // namespace

ScenarioResult run_probed_scenario(const ScenarioConfig& cfg,
                                   trace::TraceSink* sink) {
  validate(cfg);
  WallTimer wall;

  const topology::Machine base(
      cfg.shape, topology::build_gpc_network(cfg.num_nodes, cfg.tree));
  const int total = base.total_cores();
  const int p = cfg.max_ranks > 0 ? std::min(cfg.max_ranks, total) : total;
  const std::vector<CoreId> layout = simmpi::make_layout(base, p, cfg.layout);
  const std::vector<int> slots(layout.begin(), layout.end());
  std::vector<Rank> identity_oldrank(static_cast<std::size_t>(p));
  for (Rank j = 0; j < p; ++j) identity_oldrank[static_cast<std::size_t>(j)] = j;

  // Both patterns are neighbor-only (the ring literally, the rotation
  // alltoall in its cheap early stages), so RMH is the pattern-matched
  // heuristic for both.
  const auto mapper = mapping::make_heuristic(mapping::Pattern::Ring);

  ScenarioResult result;
  result.config = cfg;

  for (std::size_t pi = 0; pi < std::size(kPatterns); ++pi) {
    const ScenarioPattern pat = kPatterns[pi];
    // Per-pattern seed split: patterns see the same fabric sequence (same
    // congestion config) but independent probe/tie-break streams.
    ControllerConfig ctl = cfg.controller;
    ctl.probe.seed = mix_seed(cfg.controller.probe.seed, 0x706174ull, pi);

    const fault::DegradedTopology initial(
        base, congestion_mask(base.network(), cfg.congestion, 0));
    AdaptiveController controller(*mapper, ctl, initial, slots, sink);

    PatternSummary ps;
    ps.pattern = to_string(pat);
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      const fault::DegradedTopology topo(
          base, congestion_mask(base.network(), cfg.congestion, epoch));

      EpochRow row;
      row.pattern = ps.pattern;
      row.epoch = epoch;

      // identity: never reordered.
      row.identity_usec =
          price_run(cfg, topo, pat, slots, identity_oldrank, sink);

      // oracle: RMH on the exact effective distances, every epoch for free.
      Rng oracle_rng(mix_seed(ctl.probe.seed, 0x6f7261ull,
                              static_cast<std::uint64_t>(epoch)));
      const std::vector<int> oracle_map = mapper->checked_map(
          slots,
          topology::DistanceMatrix(
              effective_node_distances(topo),
              topology::extract_intranode_distances(topo.machine())),
          oracle_rng);
      row.oracle_usec = price_run(cfg, topo, pat, oracle_map,
                                  oldrank_of(slots, oracle_map, total), sink);

      // probed: price the controller's current mapping, then let it decide.
      row.probed_usec =
          price_run(cfg, topo, pat, controller.mapping(),
                    controller.oldrank(), sink);
      const Decision d = controller.observe(epoch, topo, row.probed_usec);
      row.action = d.action;
      row.drift = d.drift;
      row.fallback = controller.fallback_active();

      ps.identity_mean += row.identity_usec;
      ps.oracle_mean += row.oracle_usec;
      ps.probed_mean += row.probed_usec;
      result.rows.push_back(std::move(row));
    }
    ps.identity_mean /= cfg.epochs;
    ps.oracle_mean /= cfg.epochs;
    ps.probed_mean /= cfg.epochs;
    ps.remaps = controller.remaps();
    ps.fallbacks = controller.fallbacks();
    ps.probe_cost_usec = controller.probe_cost_usec();
    ps.probe_rms_error = controller.last_probe().rms_rel_error;
    result.patterns.push_back(std::move(ps));
  }

  if (sink != nullptr) {
    sink->add_count("scenario.rows", static_cast<double>(result.rows.size()));
    sink->on_wall_span(trace::WallSpan{"probed-scenario", wall.seconds()});
  }
  return result;
}

std::string ScenarioResult::csv() const {
  bench::CsvWriter w;
  w.set_header({"pattern", "epoch", "identity_usec", "oracle_usec",
                "probed_usec", "action", "drift", "fallback"});
  for (const EpochRow& r : rows)
    w.add_row({r.pattern, std::to_string(r.epoch),
               TextTable::num(r.identity_usec, 3),
               TextTable::num(r.oracle_usec, 3),
               TextTable::num(r.probed_usec, 3), to_string(r.action),
               TextTable::num(r.drift, 4), r.fallback ? "1" : "0"});
  return w.to_string();
}

std::string ScenarioResult::summary() const {
  TextTable t;
  t.set_header({"pattern", "identity(us)", "oracle(us)", "probed(us)",
                "gain%", "oracle_gap%", "remaps", "fallbacks"});
  for (const PatternSummary& p : patterns)
    t.add_row({p.pattern, TextTable::num(p.identity_mean, 2),
               TextTable::num(p.oracle_mean, 2),
               TextTable::num(p.probed_mean, 2),
               TextTable::num(p.probed_gain_pct(), 1),
               TextTable::num(p.oracle_gap_pct(), 1),
               std::to_string(p.remaps), std::to_string(p.fallbacks)});
  std::ostringstream os;
  os << "Probed scenario: " << config.num_nodes << " nodes, " << config.epochs
     << " epochs, noise " << config.controller.probe.noise << ", churn "
     << config.congestion.churn << "\n"
     << t.render();
  return os.str();
}

}  // namespace tarr::probe
