#include "fault/campaign.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "bench/csv.hpp"
#include "collectives/schedules.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fault/degraded.hpp"
#include "fault/fault_mask.hpp"
#include "fault/shrink.hpp"
#include "mapping/mapper.hpp"
#include "prof/obs.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "topology/distance.hpp"
#include "topology/routing.hpp"
#include "trace/metrics.hpp"

namespace tarr::fault {

namespace {

/// One campaign row label and the schedule it prices.
struct PatternSpec {
  const char* name;
  const char* schedule;
};

// The paper's four fine-tuned heuristics, each exercised on the collective
// it was designed for (its schedule's pattern picks the heuristic).  The
// allgather and gather use InitComm, the §V-B fix the evaluation uses for
// the heuristic path.
constexpr PatternSpec kPatterns[] = {
    {"rd-allgather", "allgather-rd"},
    {"ring-allgather", "allgather-ring"},
    {"binomial-bcast", "bcast-binomial"},
    {"binomial-gather", "gather-binomial"},
};

/// Every priced run moves 16 KiB blocks.
constexpr Bytes kBlockBytes = 16 * 1024;

void validate(const CampaignConfig& cfg) {
  TARR_REQUIRE(cfg.num_nodes >= 1, "campaign: num_nodes must be >= 1");
  TARR_REQUIRE(cfg.max_ranks >= 0, "campaign: max_ranks must be >= 0");
  TARR_REQUIRE(cfg.trials >= 1, "campaign: trials must be >= 1");
  TARR_REQUIRE(!cfg.failure_counts.empty(),
               "campaign: failure_counts must not be empty");
  for (int k : cfg.failure_counts)
    TARR_REQUIRE(k >= 0, "campaign: failure counts must be >= 0");
  topology::validate(cfg.tree);
  simmpi::validate(cfg.transient);
}

void accumulate(simmpi::TransientFaultStats& into,
                const simmpi::TransientFaultStats& s) {
  into.attempts += s.attempts;
  into.drops += s.drops;
  into.corruptions += s.corruptions;
  into.retransmissions += s.retransmissions;
  into.retransmitted_bytes += s.retransmitted_bytes;
  into.timeout_wait += s.timeout_wait;
}

/// Price one run of `sched` with its ranks on `cores`, a permutation of
/// the baseline slots, on the degraded machine; rank j's original rank is
/// the position of cores[j] in `slots`.  The run's transient-fault counters
/// are folded into `stats_out`.
Usec price_run(const CampaignConfig& cfg, const DegradedTopology& topo,
               const collectives::Schedule& sched,
               const simmpi::Communicator& slots, std::vector<CoreId> cores,
               std::uint64_t transient_seed,
               simmpi::TransientFaultStats& stats_out) {
  const simmpi::Communicator comm(topo.machine(), std::move(cores));
  simmpi::Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed,
                     kBlockBytes, sched.buf_blocks(comm.size()));
  if (cfg.transient.enabled()) {
    simmpi::TransientFaultConfig t = cfg.transient;
    t.seed = transient_seed;
    eng.set_transient_faults(t);
  }
  const Usec cost = sched.run(eng, slots.oldrank_of(comm));
  accumulate(stats_out, eng.transient_stats());
  return cost;
}

std::string fmt_usec(double v) { return TextTable::num(v, 3); }

}  // namespace

const char* to_string(FailureKind k) {
  return k == FailureKind::Links ? "links" : "nodes";
}

CampaignResult run_fault_campaign(const CampaignConfig& cfg) {
  validate(cfg);
  WallTimer campaign_timer;

  const topology::Machine base(
      topology::NodeShape{},
      topology::build_gpc_network(cfg.num_nodes, cfg.tree));
  const int total = base.total_cores();
  const int cap = cfg.max_ranks > 0 ? std::min(cfg.max_ranks, total) : total;
  const int parent_p = floor_pow2(cap);
  const topology::DistanceMatrix pristine_d = topology::extract_distances(base);

  CampaignResult result;
  result.config = cfg;

  for (std::size_t ki = 0; ki < cfg.failure_counts.size(); ++ki) {
    const int k = cfg.failure_counts[ki];
    for (int trial = 0; trial < cfg.trials; ++trial) {
      const std::uint64_t trial_seed = mix_seed(cfg.seed, ki, trial);
      Rng trial_rng(trial_seed);
      FaultMask mask;
      if (k > 0)
        mask = cfg.kind == FailureKind::Links
                   ? FaultMask::random_links(base.network(), k, trial_rng)
                   : FaultMask::random_nodes(base.network(), k, trial_rng);
      const DegradedTopology topo(base, std::move(mask));

      // Parent communicator over the pre-failure layout, then ULFM-style
      // shrink.  A partition is a structural outcome of the trial, not an
      // error of the campaign.
      const simmpi::Communicator parent(
          topo.machine(),
          simmpi::make_layout(topo.machine(), parent_p, simmpi::LayoutSpec{}));
      std::vector<CoreId> slots;
      int survivors = 0;
      bool partitioned = false;
      try {
        ShrunkComm shrunk = shrink_communicator(topo, parent);
        survivors = shrunk.comm.size();
        const int p = floor_pow2(survivors);
        slots.assign(shrunk.comm.rank_to_core().begin(),
                     shrunk.comm.rank_to_core().begin() + p);
      } catch (const topology::PartitionedError&) {
        partitioned = true;
      }

      if (partitioned) {
        ++result.partitioned_trials;
        for (const PatternSpec& spec : kPatterns) {
          CampaignRow row;
          row.failures = k;
          row.trial = trial;
          row.pattern = spec.name;
          const mapping::Pattern pattern =
              collectives::find_schedule(spec.schedule).pattern;
          row.mapper = mapping::make_heuristic(pattern)->name();
          row.partitioned = true;
          result.rows.push_back(std::move(row));
        }
        continue;
      }

      const topology::DistanceMatrix degraded_d = topo.distances();
      const simmpi::Communicator slot_comm(topo.machine(), slots);

      for (std::size_t pi = 0; pi < std::size(kPatterns); ++pi) {
        const PatternSpec& spec = kPatterns[pi];
        const collectives::Schedule& sched =
            collectives::find_schedule(spec.schedule);
        const auto mapper = mapping::make_heuristic(sched.pattern);
        const std::uint64_t run_seed = mix_seed(trial_seed, pi, 0);
        // One mapping seed and one transient seed per row: with zero
        // failures the stale and remap mappings are computed from identical
        // distances and identical tie-break streams, so they coincide
        // exactly, and the three variants see paired fault draws.
        const std::uint64_t map_seed = mix_seed(run_seed, 1, 0);
        const std::uint64_t fault_seed =
            mix_seed(cfg.transient.seed, run_seed, 2);

        CampaignRow row;
        row.failures = k;
        row.trial = trial;
        row.pattern = spec.name;
        row.mapper = mapper->name();
        row.survivors = survivors;
        row.ranks = slot_comm.size();

        // baseline: initial layout untouched.
        row.baseline_usec = price_run(cfg, topo, sched, slot_comm, slots,
                                      fault_seed, row.transient);

        // stale: the heuristic's pre-failure answer (pristine distances)
        // replayed on the degraded fabric.
        Rng stale_rng(map_seed);
        row.stale_usec = price_run(
            cfg, topo, sched, slot_comm,
            mapper->checked_map(slots, pristine_d, stale_rng), fault_seed,
            row.transient);

        // remap: the heuristic re-run on the degraded distance matrix.
        Rng remap_rng(map_seed);
        row.remap_usec = price_run(
            cfg, topo, sched, slot_comm,
            mapper->checked_map(slots, degraded_d, remap_rng), fault_seed,
            row.transient);

        result.rows.push_back(std::move(row));
      }
    }
  }
  if (trace::TraceSink* sink = obs::ambient().sink) {
    simmpi::TransientFaultStats agg;
    for (const CampaignRow& r : result.rows) accumulate(agg, r.transient);
    sink->add_count("campaign.rows", static_cast<double>(result.rows.size()));
    sink->add_count("campaign.partitioned_trials",
                    static_cast<double>(result.partitioned_trials));
    sink->add_count("fault.attempts", static_cast<double>(agg.attempts));
    sink->add_count("fault.drops", static_cast<double>(agg.drops));
    sink->add_count("fault.corruptions",
                    static_cast<double>(agg.corruptions));
    sink->add_count("fault.campaign_retransmissions",
                    static_cast<double>(agg.retransmissions));
  }
  obs::wall_span("fault-campaign", campaign_timer.seconds());
  return result;
}

std::string CampaignResult::csv() const {
  bench::CsvWriter w;
  w.set_header({"kind", "failures", "trial", "pattern", "mapper", "survivors",
                "ranks", "partitioned", "baseline_usec", "stale_usec",
                "remap_usec", "drops", "corruptions", "retransmissions"});
  for (const CampaignRow& r : rows) {
    w.add_row({to_string(config.kind), std::to_string(r.failures),
               std::to_string(r.trial), r.pattern, r.mapper,
               std::to_string(r.survivors), std::to_string(r.ranks),
               r.partitioned ? "1" : "0",
               r.partitioned ? "" : fmt_usec(r.baseline_usec),
               r.partitioned ? "" : fmt_usec(r.stale_usec),
               r.partitioned ? "" : fmt_usec(r.remap_usec),
               std::to_string(r.transient.drops),
               std::to_string(r.transient.corruptions),
               std::to_string(r.transient.retransmissions)});
  }
  return w.to_string();
}

std::string CampaignResult::metrics_csv() const {
  trace::MetricsRegistry reg;
  reg.add_count("campaign.rows", static_cast<double>(rows.size()));
  reg.add_count("campaign.partitioned_trials",
                static_cast<double>(partitioned_trials));
  for (const CampaignRow& r : rows) {
    if (r.partitioned) continue;
    reg.add_count("campaign.baseline_usec", r.baseline_usec);
    reg.add_count("campaign.stale_usec", r.stale_usec);
    reg.add_count("campaign.remap_usec", r.remap_usec);
    reg.add_count("fault.attempts", static_cast<double>(r.transient.attempts));
    reg.add_count("fault.drops", static_cast<double>(r.transient.drops));
    reg.add_count("fault.corruptions",
                  static_cast<double>(r.transient.corruptions));
    reg.add_count("fault.retransmissions",
                  static_cast<double>(r.transient.retransmissions));
    reg.add_count("fault.retransmitted_bytes",
                  static_cast<double>(r.transient.retransmitted_bytes));
    reg.add_count("fault.timeout_wait_usec", r.transient.timeout_wait);
  }
  return reg.csv();
}

std::string CampaignResult::json() const {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CampaignRow& r = rows[i];
    os << "  {\"kind\":\"" << to_string(config.kind) << "\""
       << ",\"failures\":" << r.failures << ",\"trial\":" << r.trial
       << ",\"pattern\":\"" << r.pattern << "\",\"mapper\":\"" << r.mapper
       << "\",\"survivors\":" << r.survivors << ",\"ranks\":" << r.ranks
       << ",\"partitioned\":" << (r.partitioned ? "true" : "false");
    if (!r.partitioned)
      os << ",\"baseline_usec\":" << fmt_usec(r.baseline_usec)
         << ",\"stale_usec\":" << fmt_usec(r.stale_usec)
         << ",\"remap_usec\":" << fmt_usec(r.remap_usec);
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
  return os.str();
}

std::string CampaignResult::summary() const {
  struct Acc {
    int n = 0;
    int partitioned = 0;
    double base = 0, stale = 0, remap = 0;
  };
  std::map<std::pair<int, std::string>, Acc> by_group;
  for (const CampaignRow& r : rows) {
    Acc& a = by_group[{r.failures, r.pattern}];
    if (r.partitioned) {
      ++a.partitioned;
      continue;
    }
    ++a.n;
    a.base += r.baseline_usec;
    a.stale += r.stale_usec;
    a.remap += r.remap_usec;
  }

  TextTable t;
  t.set_header({"failures", "pattern", "trials", "split", "baseline(us)",
                "stale(us)", "remap(us)", "stale_gain%", "remap_gain%"});
  for (const auto& [key, a] : by_group) {
    std::vector<std::string> row = {std::to_string(key.first), key.second,
                                    std::to_string(a.n),
                                    std::to_string(a.partitioned)};
    if (a.n > 0) {
      const double base = a.base / a.n;
      const double stale = a.stale / a.n;
      const double remap = a.remap / a.n;
      row.push_back(TextTable::num(base, 2));
      row.push_back(TextTable::num(stale, 2));
      row.push_back(TextTable::num(remap, 2));
      row.push_back(TextTable::num(100.0 * (base - stale) / base, 1));
      row.push_back(TextTable::num(100.0 * (base - remap) / base, 1));
    }
    t.add_row(std::move(row));
  }

  std::ostringstream os;
  os << "Fault campaign: " << config.num_nodes << " nodes, "
     << to_string(config.kind) << " failures, " << config.trials
     << " trials/count, seed " << config.seed << "\n"
     << t.render();
  if (partitioned_trials > 0)
    os << partitioned_trials << " trial(s) partitioned the fabric\n";
  return os.str();
}

}  // namespace tarr::fault
