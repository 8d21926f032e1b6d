// tarr map — the operator's front end to the mapping stack: given a machine,
// a process count, an initial layout and a collective pattern, print the
// reordered rank placement and its predicted effect.
//
// With any artifact flag the pattern-matched collective is also simulated
// (Timed engine, --msg bytes per block) over the reordered communicator:
// --trace/--metrics export its Chrome timeline and metrics CSV, --tlog
// streams every event (framework wall spans included) into a `.tlog`,
// --report prints its critical path, --insight writes its diagnosis, --html
// renders the before/after dashboard, and --prof* write the deterministic
// self-profile (docs/OBSERVABILITY.md).  --wall opts real wall-clock
// durations into the trace and the prof CSV, giving up their byte identity.
// --out-dir DIR derives every artifact path an explicit flag leaves unset.

#include <cstdio>

#include "common/permutation.hpp"
#include "driver.hpp"
#include "insight/insight.hpp"
#include "mapping/comparators.hpp"
#include "mapping/mapcost.hpp"
#include "report/critical_path.hpp"
#include "report/render.hpp"
#include "viz/dashboard.hpp"

namespace tarr::driver {

int cmd_map(const Flags& f) {
  const RunSpec run = parse_run(f);
  const bool out_dir = f.has("--out-dir");
  const bool report = f.has("--report") || out_dir;
  // --trace and --metrics export the tracer; --report, --html and --insight
  // read the run it records.
  const bool exported = f.has("--trace") || f.has("--metrics") || out_dir;
  std::optional<trace::TracerOptions> topts;
  if (exported || report || f.has("--html") || f.has("--insight"))
    topts.emplace();
  Obs obs(f, topts);

  const topology::Machine machine = topology::Machine::gpc(run.nodes);
  const mapping::Pattern pattern = run.collective();
  const simmpi::Communicator comm = run.comm(machine);
  core::ReorderFramework framework = run.framework(machine);
  // The framework's Fig 7 wall spans and mapping decision counters go to
  // an exported tracer and the capture; the record needs only the
  // collective.
  if (exported || obs.tlog() != nullptr) framework.set_trace_sink(obs.sink());
  const core::ReorderedComm rc = reorder(framework, comm, pattern, run.mapper);

  const auto g = mapping::build_pattern_graph(pattern, run.procs);
  const auto& d = framework.distances();
  const std::vector<int> before(comm.rank_to_core().begin(),
                                comm.rank_to_core().end());
  const std::vector<int> after(rc.comm.rank_to_core().begin(),
                               rc.comm.rank_to_core().end());
  std::printf("machine : %d nodes x %d cores (%d total)\n", run.nodes,
              machine.cores_per_node(), machine.total_cores());
  std::printf("job     : %d procs, %s initial layout\n", run.procs,
              run.layout.c_str());
  std::printf("pattern : %s, mapper %s, seed %llu\n", run.pattern.c_str(),
              run.mapper.c_str(), static_cast<unsigned long long>(run.seed));
  std::printf("cost    : %.0f -> %.0f (weighted distance)\n",
              mapping::mapping_cost(g, before, d),
              mapping::mapping_cost(g, after, d));
  std::printf("overhead: %.4f s mapping, %.4f s distance extraction\n",
              rc.mapping_seconds, framework.distance_extraction_seconds());

  if (obs.sink() != nullptr || obs.profiling()) {
    const Usec total = simulate(rc.comm, pattern, rc.oldrank, run.msg_bytes,
                                obs.sink());
    std::printf("traced  : %s over %d ranks, %lld B blocks, %.1f us "
                "simulated\n",
                run.pattern.c_str(), rc.comm.size(), run.msg_bytes, total);
    obs.write_trace(/*print=*/true);
    obs.finish_tlog(/*print=*/true);
    if (report) {
      const std::string rendered = report::render_critical_path(
          report::analyze_critical_path(obs.tracer->record(), machine));
      std::fputs(rendered.c_str(), stdout);
      if (const std::string p = obs.path("--report"); !p.empty()) {
        write_file(p, rendered);
        std::printf("report  : %s\n", p.c_str());
      }
    }
    if (const std::string p = obs.path("--insight"); !p.empty()) {
      // Diagnose the reordered run just traced; the tracer's metrics (when
      // exported) contribute distribution-tail findings.
      write_file(p, insight::render_findings(insight::diagnose(
                        obs.tracer->record(), machine, /*top_k=*/8,
                        exported ? &obs.tracer->metrics() : nullptr)));
      std::printf("insight : %s\n", p.c_str());
    }
    if (const std::string p = obs.path("--html"); !p.empty()) {
      // A baseline run over the *unreordered* communicator gives the
      // dashboard its before/after story; its diagnosis says what is wrong
      // with the initial layout.
      trace::ScheduleRecorder base_recorder;
      simulate(comm, pattern, identity_permutation(comm.size()),
               run.msg_bytes, &base_recorder, "simulate:baseline");
      const trace::ScheduleRecord base_record = base_recorder.take();
      viz::DashboardInputs in;
      in.title = "tarr map dashboard";
      in.subtitle = run.describe(rc.comm.size());
      in.machine = &machine;
      in.baseline = &base_record;
      in.baseline_label = run.layout;
      in.candidate = &obs.tracer->record();
      in.candidate_label = run.mapper;
      prof::Profile profile;
      if (obs.profiling()) {
        profile = obs.profile();
        in.profile = &profile;
        in.profile_label = "tarr map run";
      }
      const insight::Diagnosis base_diag =
          insight::diagnose(base_record, machine);
      in.diagnosis = &base_diag;
      write_file(p, viz::render_dashboard(in));
      std::printf("html    : %s\n", p.c_str());
    }
  }
  obs.write_prof();
  if (!f.has("--quiet")) {
    std::printf("\nnew_rank -> core (node.local):\n");
    for (Rank j = 0; j < rc.comm.size(); ++j) {
      const CoreId c = rc.comm.core_of(j);
      std::printf("  %4d -> %4d (%d.%d)%s", j, c, machine.node_of_core(c),
                  machine.local_core(c), (j + 1) % 4 == 0 ? "\n" : "");
    }
    if (rc.comm.size() % 4 != 0) std::printf("\n");
  }
  return 0;
}

}  // namespace tarr::driver
