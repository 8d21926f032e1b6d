// tarr report — analysis and gating over tarr::report:
//   critical-path  record the pattern-matched collective over the reordered
//                  communicator and print its completion-time-determining
//                  chain, attributed per channel class.  --tlog also streams
//                  the run into a `.tlog`; --from-tlog rebuilds the schedule
//                  from one instead of simulating (same run options, same
//                  bytes — CI cmp's the two).
//   diff           baseline layout vs reordering: per-channel byte/time
//                  migration and the top relieved / newly loaded resources.
//   compare        the CI perf gate over two bench snapshot sets; exits 1
//                  when a gated metric regressed beyond tolerance.

#include <cstdio>

#include "common/cli.hpp"
#include "common/permutation.hpp"
#include "driver.hpp"
#include "report/diff.hpp"
#include "report/render.hpp"
#include "report/snapshot.hpp"
#include "tlog/reader.hpp"

namespace tarr::driver {
namespace {

report::RenderFormat format(const Flags& f) {
  return f.has("--markdown") ? report::RenderFormat::Markdown
                             : report::RenderFormat::Text;
}

}  // namespace

int cmd_report_critical_path(const Flags& f) {
  const RunSpec run = parse_run(f);
  const std::string from = f.str("--from-tlog");
  if (!from.empty() && f.has("--tlog"))
    throw cli::UsageError("--from-tlog and --tlog are exclusive");
  f.num("--top", 8, 1, 1 << 20);  // validated like diff's, unused here
  Obs obs(f);
  const topology::Machine machine = topology::Machine::gpc(run.nodes);
  const mapping::Pattern pattern = run.collective();
  const simmpi::Communicator comm = run.comm(machine);
  trace::ScheduleRecord rec;
  if (!from.empty()) {
    rec = tlog::read_record(from);
  } else {
    core::ReorderFramework fw = run.framework(machine);
    const core::ReorderedComm rc = reorder(fw, comm, pattern, run.mapper);
    rec = record(rc.comm, pattern, rc.oldrank, run.msg_bytes, obs.tlog());
    obs.finish_tlog();
  }
  // The header is a pure function of the flags, so live and --from-tlog
  // runs of the same options print identical bytes.
  std::printf("%s over %d ranks on %d nodes (%s mapping, %lld B blocks)\n",
              run.pattern.c_str(), comm.size(), run.nodes, run.mapper.c_str(),
              run.msg_bytes);
  std::fputs(report::render_critical_path(
                 report::analyze_critical_path(rec, machine), format(f))
                 .c_str(),
             stdout);
  return 0;
}

int cmd_report_diff(const Flags& f) {
  const RunSpec run = parse_run(f);
  if (f.has("--from-tlog") || f.has("--tlog"))
    throw cli::UsageError(
        "diff records two runs; --from-tlog/--tlog apply to critical-path "
        "only");
  const int top_k = static_cast<int>(f.num("--top", 8, 1, 1 << 20));
  const topology::Machine machine = topology::Machine::gpc(run.nodes);
  const mapping::Pattern pattern = run.collective();
  const simmpi::Communicator comm = run.comm(machine);
  core::ReorderFramework fw = run.framework(machine);
  const core::ReorderedComm rc = reorder(fw, comm, pattern, run.mapper);
  const auto base = record(comm, pattern, identity_permutation(comm.size()),
                           run.msg_bytes);
  const auto cand = record(rc.comm, pattern, rc.oldrank, run.msg_bytes);
  std::printf("%s over %d ranks on %d nodes: %s layout vs %s mapping "
              "(%lld B blocks)\n",
              run.pattern.c_str(), comm.size(), run.nodes, run.layout.c_str(),
              run.mapper.c_str(), run.msg_bytes);
  std::fputs(report::render_diff(
                 report::diff_runs(base, cand, machine, top_k), format(f))
                 .c_str(),
             stdout);
  return 0;
}

int cmd_report_compare(const Flags& f) {
  report::CompareOptions copts;
  copts.rel_tolerance = f.real("--rel-tolerance", copts.rel_tolerance);
  copts.abs_tolerance = f.real("--abs-tolerance", copts.abs_tolerance);
  // Positional BASELINE CURRENT and the --*-dir flags are interchangeable;
  // either form accepts `*`/`?` globs in the final path component.
  std::vector<std::string> sets = f.positionals();
  std::string baseline = f.str("--baseline-dir");
  std::string candidate = f.str("--candidate-dir");
  auto next = sets.begin();
  if (baseline.empty() && next != sets.end()) baseline = *next++;
  if (candidate.empty() && next != sets.end()) candidate = *next++;
  if (next != sets.end() || baseline.empty() || candidate.empty())
    throw cli::UsageError("compare needs one baseline and one candidate set");
  const auto base = report::load_snapshot_set_glob(baseline);
  const auto cand = report::load_snapshot_set_glob(candidate);
  const auto results = report::compare_snapshot_sets(base, cand, copts);
  std::fputs(report::render_comparison(results, copts, format(f)).c_str(),
             stdout);
  return report::any_regressed(results) ? 1 : 0;
}

}  // namespace tarr::driver
