// tarr insight — run diagnosis over tarr::insight:
//   diagnose  record the pattern-matched collective (identity mapping by
//             default: diagnosing the *un-reordered* run is the point) and
//             print ranked findings — stragglers, imbalance, unfair cable
//             load, contention / retransmission domination, QPI share,
//             distribution tails — each with exact evidence and the knob it
//             implicates.  --congested prices the run on a fig8-style
//             multi-tenant congested fabric; --fail-on exits 3 when a
//             finding reaches that severity; --tlog / --from-tlog capture
//             and replay the run byte-exactly.
//   trend     change points over an ordered sequence of snapshot sets
//             (oldest first, each optionally --label'ed); prints "no change
//             points" when every metric held its level.

#include <cstdio>

#include "common/cli.hpp"
#include "driver.hpp"
#include "fault/degraded.hpp"
#include "insight/insight.hpp"
#include "probe/congestion.hpp"
#include "report/snapshot.hpp"
#include "tlog/reader.hpp"
#include "topology/fattree.hpp"

namespace tarr::driver {

int cmd_insight_diagnose(const Flags& f) {
  RunSpec defaults;
  defaults.mapper = "identity";
  const RunSpec run = parse_run(f, defaults);
  const int top_k = static_cast<int>(f.num("--top", 8, 1, 1 << 20));
  const bool congested = f.has("--congested");
  const int epoch = static_cast<int>(f.num("--epoch", 0, 0, 1 << 20));
  probe::CongestionConfig cong;
  cong.seed = f.seed("--cong-seed", cong.seed);
  cong.link_prob = f.real("--cong-prob", cong.link_prob, 0.0, 1.0);
  const std::string from = f.str("--from-tlog");
  if (!from.empty() && f.has("--tlog"))
    throw cli::UsageError("--from-tlog and --tlog are exclusive");
  // A typo'd gate severity fails before the run, like a bad output path.
  std::optional<insight::Severity> gate;
  if (f.has("--fail-on")) gate = insight::parse_severity(f.str("--fail-on"));
  // One run feeds the tracer's record (imbalance analytics) and its
  // registry (tail findings); a `.tlog` replay delivers the identical
  // event stream to the same stack, so both rebuild byte-exactly.
  Obs obs(f, trace::TracerOptions{});

  // --congested right-sizes the fabric (two nodes per leaf, wide host
  // links, capacity-2 leaf uplinks) so tenant traffic lands on links the
  // job shares: on the paper's 30-nodes-per-leaf tree a small job never
  // leaves its leaf and congestion could not touch it.
  const int leaves = (run.nodes + 1) / 2;
  const topology::Machine base =
      congested ? topology::Machine(
                      topology::NodeShape{},
                      topology::build_gpc_network(
                          run.nodes, {.num_leaves = leaves,
                                      .nodes_per_leaf = 2,
                                      .num_cores = 1,
                                      .uplinks_per_core = 2,
                                      .lines_per_core = 1,
                                      .spines_per_core = 1,
                                      .leaves_per_line = leaves,
                                      .host_link_capacity = 8}))
                : topology::Machine::gpc(run.nodes);
  std::optional<fault::DegradedTopology> degraded;
  if (congested)
    degraded.emplace(base,
                     probe::congestion_mask(base.network(), cong, epoch));
  const topology::Machine& machine = congested ? degraded->machine() : base;
  const mapping::Pattern pattern = run.collective();
  const simmpi::Communicator comm = run.comm(machine);
  // A replay skips the mapping along with the simulation; the rank count
  // (all the header needs) does not depend on the mapper.
  core::ReorderFramework fw = run.framework(machine);
  const core::ReorderedComm rc =
      reorder(fw, comm, pattern, from.empty() ? run.mapper : "identity");
  if (!from.empty()) {
    tlog::replay(from, *obs.sink());
  } else {
    simulate(rc.comm, pattern, rc.oldrank, run.msg_bytes, obs.sink());
    obs.finish_tlog();
  }
  const insight::Diagnosis d = insight::diagnose(
      obs.tracer->record(), machine, top_k, &obs.tracer->metrics());

  std::printf("%s over %d ranks on %d nodes (%s mapping%s, %lld B blocks)\n",
              run.pattern.c_str(), rc.comm.size(), run.nodes,
              run.mapper.c_str(), congested ? ", congested fabric" : "",
              run.msg_bytes);
  const std::string body = insight::render_findings(
      d, f.has("--markdown") ? report::RenderFormat::Markdown
                             : report::RenderFormat::Text);
  std::fputs(body.c_str(), stdout);
  if (const std::string p = obs.path("--out"); !p.empty()) write_file(p, body);
  return gate && d.has_severity_at_least(*gate) ? 3 : 0;
}

int cmd_insight_trend(const Flags& f) {
  insight::ChangePointOptions opts;
  opts.rel_threshold = f.real("--rel-threshold", opts.rel_threshold);
  opts.abs_threshold = f.real("--abs-threshold", opts.abs_threshold);
  if (f.has("--all")) opts.gated_only = false;
  std::vector<report::SnapshotSet> sets;
  for (const auto& [flag, value] : f.items()) {
    if (flag.empty()) {
      sets.push_back({value, report::load_snapshot_set_glob(value)});
    } else if (flag == "--label") {
      if (sets.empty()) throw cli::UsageError("--label must follow a selector");
      sets.back().label = value;
    }
  }
  if (sets.size() < 2)
    throw cli::UsageError("trend needs at least two snapshot sets");
  const auto points = insight::detect_change_points(sets, opts);
  std::fputs(insight::render_change_points(points).c_str(), stdout);
  if (f.has("--fail-on-regression"))
    for (const auto& cp : points)
      if (cp.regression) return 1;
  return 0;
}

}  // namespace tarr::driver
