// tarr campaign — Monte Carlo sweep over component failures that answers
// "after the fabric breaks, is the pre-failure rank reordering still worth
// keeping, or should the job remap?"  For each failure count k it samples k
// failed links (or nodes), rebuilds routing over the surviving fabric,
// shrinks the communicator past dead nodes, and prices every pattern-matched
// heuristic under baseline / stale-mapping / remap policies (docs/FAULTS.md).
//
// --smoke is the deterministic CI preset (explicit flags override it) and
// prints the campaign metrics CSV after the summary.  --csv/--json write the
// rows, --metrics the campaign metrics CSV, --html a chart page, --prof the
// self-profile (its prof.* totals appended to the summary), --tlog the
// campaign's trace events.

#include <cstdio>
#include <map>

#include "common/cli.hpp"
#include "driver.hpp"
#include "fault/campaign.hpp"
#include "prof/prof.hpp"
#include "viz/html.hpp"

namespace tarr::driver {
namespace {

std::vector<int> parse_counts(const std::string& s) {
  std::vector<int> out;
  std::string tok;
  for (const char c : s + ',') {
    if (c != ',') {
      tok += c;
    } else if (!tok.empty()) {
      out.push_back(static_cast<int>(
          cli::parse_int("--failures", tok.c_str(), 0, 1 << 20)));
      tok.clear();
    }
  }
  if (out.empty()) throw cli::UsageError("--failures: empty list");
  return out;
}

/// Campaign page: one chart per (pattern, mapper) — mean baseline / stale /
/// remap latency across the failure sweep (partitioned trials excluded,
/// they have no times) — plus the full row table.  Assembled here from
/// tarr::viz primitives so the viz library itself stays fault-agnostic.
std::string campaign_html(const fault::CampaignResult& result) {
  using fault::CampaignRow;

  // (pattern, mapper) -> failures -> [sum, count] per policy.
  struct Acc {
    double sum[3] = {0, 0, 0};
    int count = 0;
  };
  std::map<std::pair<std::string, std::string>, std::map<int, Acc>> series;
  int skipped_partitioned = 0;
  for (const CampaignRow& row : result.rows) {
    if (row.partitioned) {
      ++skipped_partitioned;
      continue;
    }
    Acc& acc = series[{row.pattern, row.mapper}][row.failures];
    acc.sum[0] += row.baseline_usec;
    acc.sum[1] += row.stale_usec;
    acc.sum[2] += row.remap_usec;
    ++acc.count;
  }

  viz::Page page("fault campaign");
  std::string intro =
      std::string(fault::to_string(result.config.kind)) + " failures over " +
      std::to_string(result.config.num_nodes) + " nodes, " +
      std::to_string(result.config.trials) + " trial(s) per count, seed " +
      std::to_string(result.config.seed);
  if (result.partitioned_trials > 0)
    intro += "; " + std::to_string(result.partitioned_trials) +
             " trial(s) partitioned the fabric";

  std::string body;
  for (const auto& [key, by_failures] : series) {
    std::vector<std::string> x;
    viz::ChartSeries base{"baseline", {}, 0};
    viz::ChartSeries stale{"stale mapping", {}, 1};
    viz::ChartSeries remap{"remap", {}, 2};
    for (const auto& [failures, acc] : by_failures) {
      x.push_back(std::to_string(failures));
      base.y.push_back(acc.sum[0] / acc.count);
      stale.y.push_back(acc.sum[1] / acc.count);
      remap.y.push_back(acc.sum[2] / acc.count);
    }
    body += viz::line_chart(key.first + " / " + key.second +
                                " — mean latency vs failure count",
                            x, {base, stale, remap}, "mean latency (us)");
  }
  if (skipped_partitioned > 0)
    body += "<p class=\"intro\">" +
            viz::escape_text(std::to_string(skipped_partitioned) +
                             " partitioned row(s) are excluded from the "
                             "charts (no latencies exist).") +
            "</p>\n";

  std::vector<std::vector<std::string>> rows;
  for (const CampaignRow& row : result.rows)
    rows.push_back({std::to_string(row.failures), std::to_string(row.trial),
                    row.pattern, row.mapper, std::to_string(row.ranks),
                    row.partitioned ? "yes" : "no",
                    row.partitioned ? "-" : format_number(row.baseline_usec),
                    row.partitioned ? "-" : format_number(row.stale_usec),
                    row.partitioned ? "-" : format_number(row.remap_usec)});
  body += viz::collapsible(
      "All rows (" + std::to_string(rows.size()) + ")",
      viz::data_table({"failures", "trial", "pattern", "mapper", "ranks",
                       "partitioned", "baseline (us)", "stale (us)",
                       "remap (us)"},
                      rows));
  page.add_section("Failure sweep", intro, body);
  return page.html();
}

}  // namespace

int cmd_campaign(const Flags& f) {
  fault::CampaignConfig cfg;
  const bool smoke = f.has("--smoke");
  if (smoke) {
    // Small machine, few trials, a clean and a heavily-degraded point,
    // fixed seed.  nodes_per_leaf shrinks so the 16 nodes still span every
    // leaf of the fabric.
    cfg.num_nodes = 16;
    cfg.tree.nodes_per_leaf = 4;
    cfg.trials = 2;
    cfg.failure_counts = {0, 2, 4};
    cfg.seed = 42;
  }
  cfg.num_nodes =
      static_cast<int>(f.num("--nodes", cfg.num_nodes, 1, 1 << 20));
  cfg.trials = static_cast<int>(f.num("--trials", cfg.trials, 1, 1 << 20));
  if (f.has("--failures"))
    cfg.failure_counts = parse_counts(f.str("--failures"));
  if (const std::string k = f.str("--kind", "links"); k == "nodes") {
    cfg.kind = fault::FailureKind::Nodes;
  } else if (k != "links") {
    throw cli::UsageError("--kind must be links or nodes, got '" + k + "'");
  }
  cfg.seed = f.seed("--seed", cfg.seed);
  cfg.transient.drop_prob =
      f.real("--drop", cfg.transient.drop_prob, 0.0, 1.0);

  Obs obs(f);
  const fault::CampaignResult result =
      fault::run_fault_campaign(cfg, obs.sink());
  obs.finish_tlog();
  std::printf("%s", result.summary().c_str());
  if (smoke)
    std::printf("\nmetrics (category,key,count,total,peak):\n%s",
                result.metrics_csv().c_str());
  if (const std::string p = obs.path("--csv"); !p.empty())
    write_file(p, result.csv());
  if (const std::string p = obs.path("--json"); !p.empty())
    write_file(p, result.json());
  if (const std::string p = obs.path("--metrics"); !p.empty())
    write_file(p, result.metrics_csv());
  if (const std::string p = obs.path("--html"); !p.empty())
    write_file(p, campaign_html(result));
  if (obs.profiling()) {
    // The summary picks the profiler totals up as prof.* counter rows (the
    // registry schema of the campaign metrics CSV).
    trace::MetricsRegistry reg;
    prof::publish(obs.profile(), reg);
    std::printf("\nprof totals (category,key,count,total,peak):\n%s",
                reg.csv().c_str());
    obs.write_prof();
  }
  obs.finish_tlog(/*print=*/true);
  return 0;
}

}  // namespace tarr::driver
