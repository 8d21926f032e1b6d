#include "probe/scenario.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "bench/csv.hpp"
#include "collectives/schedules.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fault/degraded.hpp"
#include "mapping/mapper.hpp"
#include "prof/obs.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"

namespace tarr::probe {

void validate(const ScenarioConfig& cfg) {
  TARR_REQUIRE(cfg.num_nodes >= 1, "scenario: num_nodes must be >= 1");
  TARR_REQUIRE(cfg.max_ranks >= 0, "scenario: max_ranks must be >= 0");
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

/// The collectives every scenario prices, in report order: the printed
/// pattern name, then its schedule.  Both are neighbor-heavy (the ring
/// literally, the rotation alltoall in its cheap early stages), so RMH is
/// the pattern-matched heuristic for both.
constexpr std::pair<const char*, const char*> kPatterns[] = {
    {"ring-allreduce", "allreduce-ring"},
    {"alltoall", "alltoall-rotation"},
};

/// Every priced run moves 16 KiB blocks.
constexpr Bytes kBlockBytes = 16 * 1024;

/// The resource manager's initial layout: cyclic (SLURM
/// --distribution=cyclic), so consecutive ranks land on different nodes and
/// the un-reordered collective genuinely suffers on the fabric — the
/// paper's own worst-case starting layout (Fig 3).  A block layout is
/// already ring-optimal and would make every policy coincide; see
/// docs/PROBING.md.
constexpr simmpi::LayoutSpec kLayout{simmpi::NodeOrder::Cyclic,
                                     simmpi::SocketOrder::Bunch};

/// Price one run of `sched` with its ranks on `mapping`, a permutation of
/// `slots`, on the congested fabric; rank j's original rank is the position
/// of mapping[j] in `slots`.
Usec price_run(const fault::DegradedTopology& topo,
               const collectives::Schedule& sched,
               const simmpi::Communicator& slots,
               const std::vector<int>& mapping) {
  const simmpi::Communicator comm(topo.machine(), mapping);
  simmpi::Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed,
                     kBlockBytes, sched.buf_blocks(comm.size()));
  return sched.run(eng, invert_permutation(slots.permutation_to(comm)));
}

}  // namespace

ScenarioResult run_probed_scenario(const ScenarioConfig& cfg) {
  validate(cfg);
  WallTimer wall;

  const topology::Machine base(
      cfg.shape, topology::build_gpc_network(cfg.num_nodes, cfg.tree));
  const int total = base.total_cores();
  const int p = cfg.max_ranks > 0 ? std::min(cfg.max_ranks, total) : total;
  const std::vector<int> slots = simmpi::make_layout(base, p, kLayout);
  const simmpi::Communicator slot_comm(base, slots);
  const auto mapper = mapping::make_heuristic(mapping::Pattern::Ring);

  ScenarioResult result;
  result.config = cfg;

  for (std::size_t pi = 0; pi < std::size(kPatterns); ++pi) {
    const collectives::Schedule& sched =
        collectives::find_schedule(kPatterns[pi].second);
    // Per-pattern seed split: patterns see the same fabric sequence (same
    // congestion config) but independent probe/tie-break streams.
    ControllerConfig ctl = cfg.controller;
    ctl.probe.seed = mix_seed(cfg.controller.probe.seed, 0x706174ull, pi);

    const fault::DegradedTopology initial(
        base, congestion_mask(base.network(), cfg.congestion, 0));
    AdaptiveController controller(*mapper, ctl, initial, slots);

    PatternSummary ps;
    ps.pattern = kPatterns[pi].first;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      const fault::DegradedTopology topo(
          base, congestion_mask(base.network(), cfg.congestion, epoch));

      EpochRow row;
      row.pattern = ps.pattern;
      row.epoch = epoch;

      // identity: never reordered.
      row.identity_usec = price_run(topo, sched, slot_comm, slots);

      // oracle: RMH on the exact effective distances, every epoch for free.
      Rng oracle_rng(mix_seed(ctl.probe.seed, 0x6f7261ull,
                              static_cast<std::uint64_t>(epoch)));
      const std::vector<int> oracle_map = mapper->checked_map(
          slots,
          topology::DistanceMatrix(
              effective_node_distances(topo),
              topology::extract_intranode_distances(topo.machine())),
          oracle_rng);
      row.oracle_usec = price_run(topo, sched, slot_comm, oracle_map);

      // probed: price the controller's current mapping, then let it decide.
      row.probed_usec =
          price_run(topo, sched, slot_comm, controller.mapping());
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

  if (trace::TraceSink* sink = obs::ambient().sink)
    sink->add_count("scenario.rows", static_cast<double>(result.rows.size()));
  obs::wall_span("probed-scenario", wall.seconds());
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
